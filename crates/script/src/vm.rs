//! Register-based bytecode VM for GSL.
//!
//! The tree-walking interpreter ([`crate::interp`]) re-touches names,
//! boxes every value in an [`crate::interp::SVal`], and linear-scans the
//! locals stack on every step — per entity, per tick. This module is the
//! hot-path replacement: [`compile::compile_program`] lowers the
//! (optimizer-processed) AST once into a dense `Vec<Instr>` with
//!
//! * **typed register files** — locals and temporaries live in flat
//!   `f64` / `bool` / `String` registers, numbered at compile time
//!   (the eval/apply register-machine design: each AST node compiles to
//!   instructions that leave their result in a caller-chosen register);
//! * **pre-resolved columns** — component reads carry interned
//!   [`ComponentId`]s, so the inner loop goes straight to the column
//!   store with no name hashing;
//! * **pre-built query handles** — sargable aggregate filters keep the
//!   closure compiler's [`Query`] push-down, baked into the loop-setup
//!   instruction.
//!
//! [`Vm::run`] is a flat dispatch loop over those instructions. Its
//! contract is *exact* observational equivalence with the interpreter:
//! the same `EffectBuffer` writes in the same order, the same emitted
//! events, and the same [`RuntimeError`]s (missing values read as
//! zero/false/"", ÷0 yields 0, `while` fuel is shared across the whole
//! run per [`ExecOptions::loop_fuel`]). The interpreter stays on as the
//! differential-testing oracle behind `ExecMode::Interp`.

use std::fmt;

use gamedb_content::{CmpOp, Value};
use gamedb_core::{ComponentId, Effect, EffectBuffer, EntityId, Query, World, POS};

use crate::ast::{AggKind, Subject};
use crate::interp::{ExecOptions, RuntimeError};

pub mod compile;

pub use compile::compile_program;

/// Register index into one of the VM's typed register files.
pub type Reg = u16;

/// Sentinel query index on [`Instr::LoopBegin`]: no sargable push-down.
pub const NO_QUERY: u16 = u16::MAX;

/// Comparison opcodes (f64 comparisons carry IEEE NaN semantics, which
/// match the interpreter's `partial_cmp` table exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmCmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl VmCmp {
    /// The opcode that holds for `(y, x)` exactly when `self` holds for
    /// `(x, y)` — NaN operands included.
    fn mirrored(self) -> VmCmp {
        match self {
            VmCmp::Lt => VmCmp::Gt,
            VmCmp::Le => VmCmp::Ge,
            VmCmp::Gt => VmCmp::Lt,
            VmCmp::Ge => VmCmp::Le,
            eq_or_ne => eq_or_ne,
        }
    }

    /// Raw f64 comparison — the interpreter's `partial_cmp` table (a NaN
    /// operand fails everything but `Ne`).
    #[inline]
    fn holds(self, x: f64, y: f64) -> bool {
        match self {
            VmCmp::Eq => x == y,
            VmCmp::Ne => x != y,
            VmCmp::Lt => x < y,
            VmCmp::Le => x <= y,
            VmCmp::Gt => x > y,
            VmCmp::Ge => x >= y,
        }
    }
}

/// Arithmetic opcodes. Div/Rem by zero yield 0.0 — scripts never crash
/// the server on ÷0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmArith {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

impl VmArith {
    #[inline]
    fn apply(self, x: f64, y: f64) -> f64 {
        match self {
            VmArith::Add => x + y,
            VmArith::Sub => x - y,
            VmArith::Mul => x * y,
            VmArith::Div if y == 0.0 => 0.0,
            VmArith::Div => x / y,
            VmArith::Rem if y == 0.0 => 0.0,
            VmArith::Rem => x % y,
        }
    }
}

/// A pre-extracted sargable aggregate filter — `other.<comp> <op>
/// <literal>` — executed through the query planner (and any secondary
/// index) instead of per-candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct SargQuery {
    pub comp: String,
    pub op: CmpOp,
    pub lit: f32,
}

/// One bytecode instruction. Jump targets are absolute instruction
/// indices; `pool` indexes the program's string pool; `name` indexes the
/// same pool (component names for effect writes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// num\[dst\] ← constant
    LoadNum { dst: Reg, val: f64 },
    /// bool\[dst\] ← constant
    LoadBool { dst: Reg, val: bool },
    /// str\[dst\] ← pool entry
    LoadStr { dst: Reg, pool: u16 },
    CopyNum { dst: Reg, src: Reg },
    CopyBool { dst: Reg, src: Reg },

    /// num\[dst\] ← numeric column (missing reads as 0.0)
    ReadNum { dst: Reg, col: ComponentId, subj: Subject },
    /// bool\[dst\] ← bool column (missing reads as false)
    ReadBool { dst: Reg, col: ComponentId, subj: Subject },
    /// str\[dst\] ← str column (missing reads as "")
    ReadStr { dst: Reg, col: ComponentId, subj: Subject },
    /// num\[dst\] ← position axis (`NoPosition` when the subject has none)
    ReadAxis { dst: Reg, subj: Subject, y: bool },

    Arith { op: VmArith, dst: Reg, a: Reg, b: Reg },
    /// [`Instr::Arith`] with a literal operand: num\[dst\] ← num\[a\] op
    /// `k`, or `k` op num\[a\] when `rev` (the literal stood on the left)
    ArithK { op: VmArith, rev: bool, dst: Reg, a: Reg, k: f64 },
    Neg { dst: Reg, src: Reg },
    Not { dst: Reg, src: Reg },
    MinNum { dst: Reg, a: Reg, b: Reg },
    MaxNum { dst: Reg, a: Reg, b: Reg },
    AbsNum { dst: Reg, src: Reg },
    /// `x.clamp(lo.min(hi), hi.max(lo))` — swapped bounds tolerated,
    /// matching the interpreter's builtin.
    ClampNum { dst: Reg, x: Reg, lo: Reg, hi: Reg },
    CmpNum { op: VmCmp, dst: Reg, a: Reg, b: Reg },
    CmpBool { op: VmCmp, dst: Reg, a: Reg, b: Reg },
    CmpStr { op: VmCmp, dst: Reg, a: Reg, b: Reg },
    /// num\[dst\] ← dist(self, other)
    Dist { dst: Reg },
    /// num\[dst\] ← distance to nearest neighbor within num\[radius\]
    /// (the radius itself when none)
    NearestDist { dst: Reg, radius: Reg },

    Jump { to: u32 },
    JumpIf { cond: Reg, to: u32 },
    JumpIfNot { cond: Reg, to: u32 },
    /// Compare-and-branch: jump unless num\[a\] op num\[b\] holds — a
    /// numeric `while`/`if`/filter condition in one instruction
    JumpUnlessCmp { op: VmCmp, a: Reg, b: Reg, to: u32 },
    /// [`Instr::JumpUnlessCmp`] against a literal: jump unless
    /// num\[a\] op `k` holds
    JumpUnlessCmpK { op: VmCmp, a: Reg, to: u32, k: f64 },
    /// Burn one unit of the run-wide `while` fuel
    /// ([`ExecOptions::loop_fuel`], shared across all loops of the run —
    /// interpreter semantics, not the closure compiler's per-loop cap).
    ConsumeFuel,
    /// Error unless `other` is bound — emitted where the interpreter
    /// resolves a subject before evaluating the value expression.
    CheckOther,

    /// Fill loop frame `slot` with neighbor candidates within
    /// num\[radius\] of self (excluding self), saving the current
    /// `other` binding. When `query != NO_QUERY` and the index is
    /// enabled, candidates come prefiltered through the pushed-down
    /// [`SargQuery`] instead.
    LoopBegin { slot: u8, radius: Reg, query: u16 },
    /// Bind `other` to the next candidate, or restore the saved binding
    /// and jump to `exit` when the frame is exhausted.
    LoopNext { slot: u8, exit: u32 },
    /// Skip the inline filter re-check when this frame's candidates were
    /// already prefiltered by the query push-down.
    SkipIfPrefiltered { slot: u8, to: u32 },
    /// Fold aggregate accumulators into num\[dst\]
    /// (count == 0 ⇒ 0.0 for min/max/avg).
    AggFinish { kind: AggKind, dst: Reg, count: Reg, sum: Reg, min: Reg, max: Reg },

    /// Effect write: `Set(Float(num[src] as f32))` on pool\[name\]
    SetF32 { subj: Subject, name: u16, src: Reg },
    /// Effect write: `Set(Int(num[src].round() as i64))`
    SetI64 { subj: Subject, name: u16, src: Reg },
    SetBool { subj: Subject, name: u16, src: Reg },
    SetStr { subj: Subject, name: u16, src: Reg },
    /// Effect write: commutative `Add` (negated for `-=`)
    AddNum { subj: Subject, name: u16, src: Reg, negate: bool },
    /// `move(dx, dy)`: `AddVec2` on the position column
    MoveBy { dx: Reg, dy: Reg },
    Despawn,
    /// Append pool\[pool\] to the run's emitted events
    Emit { pool: u16 },
}

// Every instruction — immediates included — stays two words, so the
// dispatch loop's fetch is one aligned 16-byte load.
const _: () = assert!(std::mem::size_of::<Instr>() == 16);

/// A compiled script: dense instructions plus the constant pool and the
/// register-file sizes the compiler high-watermarked.
#[derive(Clone, PartialEq)]
pub struct Program {
    name: String,
    instrs: Vec<Instr>,
    pool: Vec<String>,
    queries: Vec<SargQuery>,
    num_regs: u16,
    bool_regs: u16,
    str_regs: u16,
    loop_slots: u8,
    /// Every `(id, name)` this program pre-resolved — the validation
    /// table [`Program::validate_schema`] checks a world against.
    comps: Vec<(ComponentId, String)>,
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("name", &self.name)
            .field("instrs", &self.instrs.len())
            .field("num_regs", &self.num_regs)
            .field("bool_regs", &self.bool_regs)
            .field("str_regs", &self.str_regs)
            .field("loop_slots", &self.loop_slots)
            .field("queries", &self.queries.len())
            .finish_non_exhaustive()
    }
}

impl Program {
    /// Script name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of instructions in the compiled body.
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// The instruction stream (introspection / disassembly in tests).
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Size of the f64 register file.
    pub fn num_regs(&self) -> u16 {
        self.num_regs
    }

    /// Size of the bool register file.
    pub fn bool_regs(&self) -> u16 {
        self.bool_regs
    }

    /// Size of the string register file.
    pub fn str_regs(&self) -> u16 {
        self.str_regs
    }

    /// True when every column id this program baked in still names the
    /// same component in `world`. Ids are stable within a world lineage,
    /// so this only fails when a program is reused across worlds — the
    /// engine recompiles on mismatch.
    pub fn validate_schema(&self, world: &World) -> bool {
        self.comps
            .iter()
            .all(|(id, name)| world.component_name(*id) == Some(name.as_str()))
    }
}

/// One in-flight neighbor loop.
#[derive(Default)]
struct LoopFrame {
    cands: Vec<EntityId>,
    idx: usize,
    saved_other: Option<EntityId>,
    prefiltered: bool,
}

/// The dispatch machine. Register files and loop frames are owned here
/// and reused across runs, so steady-state per-entity execution does no
/// allocation beyond what the interpreter's own query paths do.
#[derive(Default)]
pub struct Vm {
    nums: Vec<f64>,
    bools: Vec<bool>,
    strs: Vec<String>,
    loops: Vec<LoopFrame>,
    events: Vec<String>,
    scratch: Vec<EntityId>,
    instrs_retired: u64,
    probes: u64,
    probe_rows: u64,
}

#[inline]
fn subj_id(self_id: EntityId, other: Option<EntityId>, s: Subject) -> Result<EntityId, RuntimeError> {
    match s {
        Subject::SelfEnt => Ok(self_id),
        Subject::Other => other.ok_or_else(|| {
            RuntimeError::TypeError("'other' used outside foreach/aggregate".into())
        }),
    }
}

/// Neighbor enumeration — byte-for-byte the interpreter's: spatial index
/// + retain, or the naive entity-order distance scan.
fn neighbors(
    world: &World,
    self_id: EntityId,
    radius: f64,
    use_index: bool,
    out: &mut Vec<EntityId>,
) -> Result<(), RuntimeError> {
    let center = world.pos(self_id).ok_or(RuntimeError::NoPosition(self_id))?;
    let r = radius.max(0.0) as f32;
    out.clear();
    if use_index {
        world.within(center, r, out);
        out.retain(|&e| e != self_id);
    } else {
        let r2 = r * r;
        for e in world.entities() {
            if e == self_id {
                continue;
            }
            if let Some(p) = world.pos(e) {
                if p.dist2(center) <= r2 {
                    out.push(e);
                }
            }
        }
    }
    Ok(())
}

#[inline]
fn cmp_ord(op: VmCmp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match (op, ord) {
        (VmCmp::Eq, Equal) => true,
        (VmCmp::Eq, _) => false,
        (VmCmp::Ne, Equal) => false,
        (VmCmp::Ne, _) => true,
        (VmCmp::Lt, Less) => true,
        (VmCmp::Le, Less | Equal) => true,
        (VmCmp::Gt, Greater) => true,
        (VmCmp::Ge, Greater | Equal) => true,
        _ => false,
    }
}

impl Vm {
    pub fn new() -> Self {
        Self::default()
    }

    /// Instructions retired since the last call (metrics drain).
    pub fn take_instr_count(&mut self) -> u64 {
        std::mem::take(&mut self.instrs_retired)
    }

    /// `(neighbour loops begun, candidates they returned)` since the
    /// last call (metrics drain).
    pub fn take_probe_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.probes),
            std::mem::take(&mut self.probe_rows),
        )
    }

    /// Run one compiled script for one entity against the immutable
    /// tick-start world. Effects land in `buf`; emitted events are
    /// returned — exactly as [`crate::interp::run_script`] would.
    pub fn run(
        &mut self,
        p: &Program,
        world: &World,
        self_id: EntityId,
        buf: &mut EffectBuffer,
        opts: ExecOptions,
    ) -> Result<Vec<String>, RuntimeError> {
        // size + zero the register files (cheap: a handful of slots)
        if self.nums.len() < p.num_regs as usize {
            self.nums.resize(p.num_regs as usize, 0.0);
        }
        self.nums[..p.num_regs as usize].fill(0.0);
        if self.bools.len() < p.bool_regs as usize {
            self.bools.resize(p.bool_regs as usize, false);
        }
        self.bools[..p.bool_regs as usize].fill(false);
        if self.strs.len() < p.str_regs as usize {
            self.strs.resize(p.str_regs as usize, String::new());
        }
        for s in &mut self.strs[..p.str_regs as usize] {
            s.clear(); // keep capacity: no per-run string allocation
        }
        while self.loops.len() < p.loop_slots as usize {
            self.loops.push(LoopFrame::default());
        }
        self.events.clear();
        let mut retired = 0u64;
        let result = self.dispatch(p, world, self_id, buf, opts, &mut retired);
        self.instrs_retired += retired;
        result?;
        Ok(std::mem::take(&mut self.events))
    }

    fn dispatch(
        &mut self,
        p: &Program,
        world: &World,
        self_id: EntityId,
        buf: &mut EffectBuffer,
        opts: ExecOptions,
        retired: &mut u64,
    ) -> Result<(), RuntimeError> {
        let instrs = &p.instrs[..];
        let mut pc = 0usize;
        let mut other: Option<EntityId> = None;
        let mut fuel = opts.loop_fuel;
        while let Some(&i) = instrs.get(pc) {
            *retired += 1;
            pc += 1;
            match i {
                Instr::LoadNum { dst, val } => self.nums[dst as usize] = val,
                Instr::LoadBool { dst, val } => self.bools[dst as usize] = val,
                Instr::LoadStr { dst, pool } => {
                    let s = &mut self.strs[dst as usize];
                    s.clear();
                    s.push_str(&p.pool[pool as usize]);
                }
                Instr::CopyNum { dst, src } => self.nums[dst as usize] = self.nums[src as usize],
                Instr::CopyBool { dst, src } => {
                    self.bools[dst as usize] = self.bools[src as usize]
                }

                Instr::ReadNum { dst, col, subj } => {
                    let id = subj_id(self_id, other, subj)?;
                    self.nums[dst as usize] = if world.is_live(id) {
                        world
                            .column_by_id(col)
                            .and_then(|c| c.get_number(id.index() as usize))
                            .unwrap_or(0.0)
                    } else {
                        0.0
                    };
                }
                Instr::ReadBool { dst, col, subj } => {
                    let id = subj_id(self_id, other, subj)?;
                    self.bools[dst as usize] = world.is_live(id)
                        && world
                            .column_by_id(col)
                            .and_then(|c| c.get_bool(id.index() as usize))
                            .unwrap_or(false);
                }
                Instr::ReadStr { dst, col, subj } => {
                    let id = subj_id(self_id, other, subj)?;
                    let val = if world.is_live(id) {
                        world
                            .column_by_id(col)
                            .and_then(|c| c.get_str(id.index() as usize))
                            .unwrap_or("")
                    } else {
                        ""
                    };
                    let s = &mut self.strs[dst as usize];
                    s.clear();
                    s.push_str(val);
                }
                Instr::ReadAxis { dst, subj, y } => {
                    let id = subj_id(self_id, other, subj)?;
                    let pp = world.pos(id).ok_or(RuntimeError::NoPosition(id))?;
                    self.nums[dst as usize] = (if y { pp.y } else { pp.x }) as f64;
                }

                Instr::Arith { op, dst, a, b } => {
                    self.nums[dst as usize] = op.apply(self.nums[a as usize], self.nums[b as usize]);
                }
                Instr::ArithK { op, rev, dst, a, k } => {
                    let x = self.nums[a as usize];
                    self.nums[dst as usize] = if rev { op.apply(k, x) } else { op.apply(x, k) };
                }
                Instr::Neg { dst, src } => self.nums[dst as usize] = -self.nums[src as usize],
                Instr::Not { dst, src } => self.bools[dst as usize] = !self.bools[src as usize],
                Instr::MinNum { dst, a, b } => {
                    self.nums[dst as usize] = self.nums[a as usize].min(self.nums[b as usize])
                }
                Instr::MaxNum { dst, a, b } => {
                    self.nums[dst as usize] = self.nums[a as usize].max(self.nums[b as usize])
                }
                Instr::AbsNum { dst, src } => {
                    self.nums[dst as usize] = self.nums[src as usize].abs()
                }
                Instr::ClampNum { dst, x, lo, hi } => {
                    let (v, lo, hi) =
                        (self.nums[x as usize], self.nums[lo as usize], self.nums[hi as usize]);
                    self.nums[dst as usize] = v.clamp(lo.min(hi), hi.max(lo));
                }
                Instr::CmpNum { op, dst, a, b } => {
                    self.bools[dst as usize] = op.holds(self.nums[a as usize], self.nums[b as usize]);
                }
                Instr::CmpBool { op, dst, a, b } => {
                    let ord = self.bools[a as usize].cmp(&self.bools[b as usize]);
                    self.bools[dst as usize] = cmp_ord(op, ord);
                }
                Instr::CmpStr { op, dst, a, b } => {
                    let ord = self.strs[a as usize].cmp(&self.strs[b as usize]);
                    self.bools[dst as usize] = cmp_ord(op, ord);
                }
                Instr::Dist { dst } => {
                    // interpreter error order: other bound, self
                    // positioned, other positioned
                    let o = subj_id(self_id, other, Subject::Other)?;
                    let sp = world.pos(self_id).ok_or(RuntimeError::NoPosition(self_id))?;
                    let op_ = world.pos(o).ok_or(RuntimeError::NoPosition(o))?;
                    self.nums[dst as usize] = sp.dist(op_) as f64;
                }
                Instr::NearestDist { dst, radius } => {
                    let r = self.nums[radius as usize];
                    let center = world.pos(self_id).ok_or(RuntimeError::NoPosition(self_id))?;
                    neighbors(world, self_id, r, opts.use_index, &mut self.scratch)?;
                    let mut best = r;
                    for &cand in &self.scratch {
                        if let Some(pp) = world.pos(cand) {
                            best = best.min(pp.dist(center) as f64);
                        }
                    }
                    self.nums[dst as usize] = best;
                }

                Instr::Jump { to } => pc = to as usize,
                Instr::JumpIf { cond, to } => {
                    if self.bools[cond as usize] {
                        pc = to as usize;
                    }
                }
                Instr::JumpIfNot { cond, to } => {
                    if !self.bools[cond as usize] {
                        pc = to as usize;
                    }
                }
                Instr::JumpUnlessCmp { op, a, b, to } => {
                    if !op.holds(self.nums[a as usize], self.nums[b as usize]) {
                        pc = to as usize;
                    }
                }
                Instr::JumpUnlessCmpK { op, a, to, k } => {
                    if !op.holds(self.nums[a as usize], k) {
                        pc = to as usize;
                    }
                }
                Instr::ConsumeFuel => {
                    if fuel == 0 {
                        return Err(RuntimeError::LoopFuelExhausted {
                            limit: opts.loop_fuel,
                        });
                    }
                    fuel -= 1;
                }
                Instr::CheckOther => {
                    subj_id(self_id, other, Subject::Other)?;
                }

                Instr::LoopBegin { slot, radius, query } => {
                    let r = self.nums[radius as usize];
                    let frame = &mut self.loops[slot as usize];
                    frame.idx = 0;
                    frame.saved_other = other;
                    if query != NO_QUERY && opts.use_index {
                        let center =
                            world.pos(self_id).ok_or(RuntimeError::NoPosition(self_id))?;
                        let q = &p.queries[query as usize];
                        frame.cands = Query::select()
                            .within(center, r.max(0.0) as f32)
                            .filter(q.comp.clone(), q.op, Value::Float(q.lit))
                            .excluding(self_id)
                            .run(world);
                        frame.prefiltered = true;
                    } else {
                        frame.prefiltered = false;
                        neighbors(world, self_id, r, opts.use_index, &mut frame.cands)?;
                    }
                    self.probes += 1;
                    self.probe_rows += frame.cands.len() as u64;
                }
                Instr::LoopNext { slot, exit } => {
                    let frame = &mut self.loops[slot as usize];
                    if frame.idx < frame.cands.len() {
                        other = Some(frame.cands[frame.idx]);
                        frame.idx += 1;
                    } else {
                        other = frame.saved_other;
                        pc = exit as usize;
                    }
                }
                Instr::SkipIfPrefiltered { slot, to } => {
                    if self.loops[slot as usize].prefiltered {
                        pc = to as usize;
                    }
                }
                Instr::AggFinish { kind, dst, count, sum, min, max } => {
                    let cnt = self.nums[count as usize];
                    self.nums[dst as usize] = match kind {
                        AggKind::Count => cnt,
                        AggKind::Sum => self.nums[sum as usize],
                        AggKind::Min => {
                            if cnt == 0.0 {
                                0.0
                            } else {
                                self.nums[min as usize]
                            }
                        }
                        AggKind::Max => {
                            if cnt == 0.0 {
                                0.0
                            } else {
                                self.nums[max as usize]
                            }
                        }
                        AggKind::Avg => {
                            if cnt == 0.0 {
                                0.0
                            } else {
                                self.nums[sum as usize] / cnt
                            }
                        }
                    };
                }

                Instr::SetF32 { subj, name, src } => {
                    let id = subj_id(self_id, other, subj)?;
                    let v = self.nums[src as usize] as f32;
                    buf.push(id, &p.pool[name as usize], Effect::Set(Value::Float(v)));
                }
                Instr::SetI64 { subj, name, src } => {
                    let id = subj_id(self_id, other, subj)?;
                    let v = self.nums[src as usize].round() as i64;
                    buf.push(id, &p.pool[name as usize], Effect::Set(Value::Int(v)));
                }
                Instr::SetBool { subj, name, src } => {
                    let id = subj_id(self_id, other, subj)?;
                    let v = self.bools[src as usize];
                    buf.push(id, &p.pool[name as usize], Effect::Set(Value::Bool(v)));
                }
                Instr::SetStr { subj, name, src } => {
                    let id = subj_id(self_id, other, subj)?;
                    let v = self.strs[src as usize].clone();
                    buf.push(id, &p.pool[name as usize], Effect::Set(Value::Str(v)));
                }
                Instr::AddNum { subj, name, src, negate } => {
                    let id = subj_id(self_id, other, subj)?;
                    let mut v = self.nums[src as usize];
                    if negate {
                        v = -v;
                    }
                    buf.push(id, &p.pool[name as usize], Effect::Add(v));
                }
                Instr::MoveBy { dx, dy } => {
                    let (x, y) =
                        (self.nums[dx as usize] as f32, self.nums[dy as usize] as f32);
                    buf.push(self_id, POS, Effect::AddVec2(x, y));
                }
                Instr::Despawn => buf.despawn(self_id),
                Instr::Emit { pool } => self.events.push(p.pool[pool as usize].clone()),
            }
        }
        Ok(())
    }
}
