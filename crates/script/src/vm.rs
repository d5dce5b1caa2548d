//! Register-based bytecode VM for GSL, executed set-at-a-time — the
//! only executor a [`crate::engine::ScriptEngine`] runs scripts on.
//!
//! The tree-walking interpreter ([`crate::interp`]) re-touches names,
//! boxes every value in an [`crate::interp::SVal`], and linear-scans the
//! locals stack on every step — per entity, per tick. This module is the
//! hot-path replacement: [`compile::compile_program`] lowers the
//! (optimizer-processed) AST once into a dense `Vec<Instr>` with
//!
//! * **typed registers** — locals and temporaries live in `f64` / `bool`
//!   / `String` registers, numbered at compile time (the eval/apply
//!   register-machine design: each AST node compiles to instructions
//!   that leave their result in a caller-chosen register);
//! * **pre-resolved columns** — component reads carry interned
//!   [`ComponentId`]s, so execution goes straight to the column store
//!   with no name hashing;
//! * **pre-built query handles** — sargable aggregate filters become
//!   [`Query`] push-downs baked into the loop-setup instruction;
//! * **inlined calls** — `call` chains are unrolled to the call depth the
//!   program was lowered for ([`Program::call_depth`]); a call past it is
//!   an [`Instr::Fail`] raising the interpreter's `CallDepthExceeded`.
//!
//! [`Vm::run_set`] executes one program over up to [`LANES`] entities at
//! once, MonetDB/X100-style: the paper's set-at-a-time scripts over a
//! column store. Every register is a *column* with one slot per lane. An
//! instruction is issued once to a group of lanes (a selection vector)
//! and loops over their slots — over contiguous register slices, with
//! the opcode `match` outside the loop, when every lane is active. A
//! branch splits its group by target; the executor always resumes the
//! group with the lowest pc and merges groups waiting at one pc, so lanes
//! that diverged (an `if`, a neighbour loop of another trip count)
//! reconverge at the first instruction they share. `other`, the `while`
//! fuel, loop frames and the pending [`RuntimeError`] are per lane, so a
//! lane retires exactly the instructions it would alone and every value
//! is bit-identical to a per-entity run. [`Vm::run`] is the one-lane case
//! of the same executor.
//!
//! The contract is observational equivalence with the interpreter, entity
//! by entity: the same effect writes, the same emitted events, and the
//! same [`RuntimeError`]s (missing values read as zero/false/"", ÷0 yields
//! 0, `while` fuel is shared across one entity's run per
//! [`ExecOptions::loop_fuel`]). Across entities one thing may differ: the
//! order in which different entities' effects land in the
//! [`EffectBuffer`], which [`EffectBuffer::apply`] canonicalises. The
//! interpreter stays on only as the oracle the tests hold the VM to.

use std::fmt;

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{ComponentId, Effect, EffectBuffer, EntityId, Query, World, POS};
use gamedb_spatial::Vec2;

use crate::ast::{AggKind, Subject};
use crate::interp::{ExecOptions, RuntimeError};

pub mod compile;

pub use compile::{compile_program, CompileError};

/// Register index into one of the VM's typed register files.
pub type Reg = u16;

/// Sentinel query index on [`Instr::LoopBegin`]: no sargable push-down.
pub const NO_QUERY: u16 = u16::MAX;

/// Entities one chunk of [`Vm::run_set`] executes together: wide enough
/// that an instruction's fixed cost spreads over many lanes (256 measured
/// slower on the combat tick, 4 096 and 20 000 no faster).
pub const LANES: usize = 1024;

/// A lane's index within its chunk.
type Lane = u16;

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

/// Expand `$body` once per listed opcode, `$f` bound to that opcode's
/// `$method`, so the `match` sits outside the lane loop.
macro_rules! hoist {
    ($op:expr, $method:ident, [$($v:path),+], $f:ident => $body:expr) => {
        match $op {
            $($v => {
                let $f = |x, y| $v.$method(x, y);
                $body
            })+
        }
    };
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
    CopyStr { dst: Reg, src: Reg },

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
    /// Burn one unit of the lane's `while` fuel
    /// ([`ExecOptions::loop_fuel`], shared across all loops of one
    /// entity's run — interpreter semantics).
    ConsumeFuel,
    /// Error unless `other` is bound — emitted where the interpreter
    /// resolves a subject before evaluating the value expression.
    CheckOther,
    /// Stop the lane with the program's `fails[err]` — a `call` past the
    /// depth the program was lowered for.
    Fail { err: u16 },

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

// Every instruction — immediates included — stays two words, so a
// dispatch's fetch is one aligned 16-byte load.
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
    /// The errors [`Instr::Fail`] raises, by index.
    fails: Vec<RuntimeError>,
    /// The `call` nesting the program was unrolled to
    /// ([`ExecOptions::max_call_depth`] at compile time).
    call_depth: usize,
    /// Every `(id, name, type)` this program pre-resolved — the
    /// validation table [`Program::validate_schema`] checks a world
    /// against.
    comps: Vec<(ComponentId, String, ValueType)>,
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

    /// The `call` nesting this program was unrolled to: it runs as the
    /// interpreter does under that [`ExecOptions::max_call_depth`],
    /// whatever the options it is run with.
    pub fn call_depth(&self) -> usize {
        self.call_depth
    }

    /// True when every column id this program baked in still names the
    /// same component, of the same type, in `world`. Ids are stable
    /// within a world lineage, so this only fails when a program is
    /// reused across worlds — the engine recompiles on mismatch.
    pub fn validate_schema(&self, world: &World) -> bool {
        self.comps.iter().all(|(id, name, ty)| {
            world.component_name(*id) == Some(name.as_str())
                && world.column_by_id(*id).map(|c| c.ty()) == Some(*ty)
        })
    }
}

/// Work a [`Vm`] did since its counters were last drained
/// ([`Vm::take_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmCounts {
    /// Lane-instructions retired: each instruction once per lane it ran
    /// for — what a per-entity loop would have retired.
    pub instrs: u64,
    /// Instructions issued, each to one group of lanes.
    pub dispatches: u64,
    /// Neighbour loops begun.
    pub probes: u64,
    /// Candidates those loops were handed.
    pub probe_rows: u64,
}

/// One lane's in-flight neighbor loop.
#[derive(Default)]
struct LoopFrame {
    cands: Vec<EntityId>,
    idx: usize,
    saved_other: Option<EntityId>,
    prefiltered: bool,
}

/// Lanes that branched away from the running group, waiting at `pc`.
struct Parked {
    pc: usize,
    lanes: Vec<Lane>,
}

/// What the lanes of one chunk share: lane `l` runs `p` for `ids[l]`.
struct Chunk<'a> {
    p: &'a Program,
    world: &'a World,
    ids: &'a [EntityId],
    opts: ExecOptions,
}

/// The set-at-a-time machine. Register columns, lane state, loop frames
/// and selection buffers are owned here and reused across chunks and
/// ticks, so steady-state execution allocates nothing per dispatch or
/// per lane beyond what the interpreter's own query paths do.
#[derive(Default)]
pub struct Vm {
    /// Register columns: register `r` of lane `l` at `r * n + l`, for a
    /// chunk of `n` lanes.
    nums: Vec<f64>,
    bools: Vec<bool>,
    strs: Vec<String>,
    /// Per lane: the `other` binding, the `while` fuel left, the error
    /// that stopped the lane.
    other: Vec<Option<EntityId>>,
    fuel: Vec<usize>,
    errs: Vec<Option<RuntimeError>>,
    /// Loop frame `s` of lane `l` at `s * n + l`.
    loops: Vec<LoopFrame>,
    /// The chunk's effects as `(lane, target, name, effect)` in issue
    /// order, `name` a pool index (`None`: the position column). They
    /// reach the buffer lane by lane when the chunk ends
    /// ([`Vm::flush`]), so one program's effects arrive in entity order —
    /// the order `EffectBuffer::apply` sorts into, which it then finds
    /// already sorted instead of merging a run per effect instruction
    /// per chunk.
    staged: Vec<(Lane, EntityId, Option<u16>, Effect)>,
    /// Counting-sort scratch for the flush: per-lane offsets, then the
    /// staged indices in lane order.
    offsets: Vec<u32>,
    order: Vec<u32>,
    /// `(lane, event)` in issue order.
    events: Vec<(Lane, String)>,
    scratch: Vec<EntityId>,
    /// One register column, for a kernel whose destination may alias a
    /// source.
    tmp: Vec<f64>,
    parked: Vec<Parked>,
    /// Emptied selection buffers, capacity kept.
    spare: Vec<Vec<Lane>>,
    counts: VmCounts,
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

#[inline]
fn pos_of(world: &World, id: EntityId) -> Result<Vec2, RuntimeError> {
    world.pos(id).ok_or(RuntimeError::NoPosition(id))
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
    let center = pos_of(world, self_id)?;
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

/// `a op b` from `a.cmp(b)`: it holds exactly when `(a cmp b) op 0`
/// does, with the ordering as -1 / 0 / 1.
#[inline]
fn cmp_ord(op: VmCmp, ord: std::cmp::Ordering) -> bool {
    op.holds(ord as i8 as f64, 0.0)
}

/// num\[dst\] ← num\[a\] op rhs (rhs op num\[a\] when `rev`) for every
/// lane of an `n`-lane chunk, as one loop over contiguous register
/// columns; `dst` may be `a`.
fn arith_kernel(
    nums: &mut [f64],
    n: usize,
    op: VmArith,
    rev: bool,
    dst: Reg,
    a: Reg,
    rhs: impl Iterator<Item = f64>,
) {
    let (d, a) = (dst as usize * n, a as usize * n);
    // columns are disjoint `n`-wide slices
    let (src, out): (Option<&[f64]>, &mut [f64]) = if d == a {
        (None, &mut nums[d..d + n])
    } else if a < d {
        let (lo, hi) = nums.split_at_mut(d);
        (Some(&lo[a..a + n]), &mut hi[..n])
    } else {
        let (lo, hi) = nums.split_at_mut(a);
        (Some(&hi[..n]), &mut lo[d..d + n])
    };
    hoist!(op, apply, [VmArith::Add, VmArith::Sub, VmArith::Mul, VmArith::Div, VmArith::Rem], f => {
        let f = |x, y| if rev { f(y, x) } else { f(x, y) };
        match src {
            None => out.iter_mut().zip(rhs).for_each(|(o, y)| *o = f(*o, y)),
            Some(src) => {
                for ((o, &x), y) in out.iter_mut().zip(src).zip(rhs) {
                    *o = f(x, y);
                }
            }
        }
    })
}

/// Union two lane groups waiting at one pc into `into`; the emptied
/// buffer goes back to `spare`.
fn merge(into: &mut Vec<Lane>, mut other: Vec<Lane>, spare: &mut Vec<Vec<Lane>>) {
    if other.len() > into.len() {
        std::mem::swap(into, &mut other);
    }
    into.extend_from_slice(&other);
    other.clear();
    spare.push(other);
}

impl Vm {
    pub fn new() -> Self {
        Self::default()
    }

    /// The work done since the last call (metrics drain).
    pub fn take_counts(&mut self) -> VmCounts {
        std::mem::take(&mut self.counts)
    }

    /// Run one compiled script for one entity against the immutable
    /// tick-start world: [`Vm::run_set`] with one lane. Effects land in
    /// `buf`; emitted events are returned — exactly as
    /// [`crate::interp::run_script`] would.
    pub fn run(
        &mut self,
        p: &Program,
        world: &World,
        self_id: EntityId,
        buf: &mut EffectBuffer,
        opts: ExecOptions,
    ) -> Result<Vec<String>, RuntimeError> {
        let mut events = Vec::new();
        self.run_set(p, world, &[self_id], buf, opts, &mut events)
            .map_err(|(_, e)| e)?;
        Ok(events.into_iter().map(|(_, e)| e).collect())
    }

    /// Run one compiled script for every entity of `ids` against the
    /// immutable tick-start world, [`LANES`] entities at a time. Effects
    /// land in `buf`; events are appended to `events` as `(index into
    /// ids, event)`, in (entity, order) order.
    ///
    /// On failure, returns the error of the first failing entity in
    /// `ids` order, with its index — what a per-entity loop stopping at
    /// its first error would return. Chunks after that entity's do not
    /// run; effects already pushed stay in `buf`.
    pub fn run_set(
        &mut self,
        p: &Program,
        world: &World,
        ids: &[EntityId],
        buf: &mut EffectBuffer,
        opts: ExecOptions,
        events: &mut Vec<(usize, String)>,
    ) -> Result<(), (usize, RuntimeError)> {
        for (c, ids) in ids.chunks(LANES).enumerate() {
            let base = c * LANES;
            self.run_chunk(&Chunk { p, world, ids, opts }, buf);
            // stable: each lane's events keep their order
            self.events.sort_by_key(|&(l, _)| l);
            events.extend(self.events.drain(..).map(|(l, e)| (base + l as usize, e)));
            // the lowest failing lane, not the one that failed first
            if let Some(l) = self.errs.iter().position(Option::is_some) {
                return Err((base + l, self.errs[l].take().expect("position found it")));
            }
        }
        Ok(())
    }

    /// Size and zero the register columns and lane state for `n` lanes
    /// (capacity kept: no allocation once warm).
    fn reset(&mut self, p: &Program, n: usize, fuel: usize) {
        self.nums.clear();
        self.nums.resize(p.num_regs as usize * n, 0.0);
        self.bools.clear();
        self.bools.resize(p.bool_regs as usize * n, false);
        let strs = p.str_regs as usize * n;
        if self.strs.len() < strs {
            self.strs.resize(strs, String::new());
        }
        for s in &mut self.strs[..strs] {
            s.clear();
        }
        let frames = p.loop_slots as usize * n;
        if self.loops.len() < frames {
            self.loops.resize_with(frames, LoopFrame::default);
        }
        self.other.clear();
        self.other.resize(n, None);
        self.fuel.clear();
        self.fuel.resize(n, fuel);
        self.errs.clear();
        self.errs.resize(n, None);
        self.events.clear();
    }

    /// Park `lanes` at `pc`, joining the group already waiting there.
    fn park(&mut self, pc: usize, lanes: Vec<Lane>) {
        match self.parked.iter_mut().find(|g| g.pc == pc) {
            Some(g) => merge(&mut g.lanes, lanes, &mut self.spare),
            None => self.parked.push(Parked { pc, lanes }),
        }
    }

    /// The lowest parked group, removed, if it waits at or below `pc`.
    fn unpark(&mut self, pc: usize) -> Option<Parked> {
        let (i, lowest) = self
            .parked
            .iter()
            .enumerate()
            .min_by_key(|(_, g)| g.pc)
            .map(|(i, g)| (i, g.pc))?;
        (lowest <= pc).then(|| self.parked.swap_remove(i))
    }

    /// Run `p` for one chunk of at most [`LANES`] entities. Each lane's
    /// error, if any, is left in `errs`.
    fn run_chunk(&mut self, cx: &Chunk, buf: &mut EffectBuffer) {
        let (p, n) = (cx.p, cx.ids.len());
        self.reset(p, n, cx.opts.loop_fuel);
        let mut sel = self.spare.pop().unwrap_or_default();
        sel.extend(0..n as Lane);
        let mut taken = self.spare.pop().unwrap_or_default();
        let mut pc = 0;
        loop {
            // min-pc reconvergence: a finished or emptied group hands over
            // to the lowest parked one, and a group parked at or below the
            // running pc goes first (or joins it, when level)
            if pc >= p.instrs.len() || sel.is_empty() {
                let Some(g) = self.unpark(usize::MAX) else { break };
                sel.clear();
                self.spare.push(std::mem::replace(&mut sel, g.lanes));
                pc = g.pc;
                continue;
            }
            while let Some(g) = self.unpark(pc) {
                if g.pc == pc {
                    merge(&mut sel, g.lanes, &mut self.spare);
                } else {
                    let running = std::mem::replace(&mut sel, g.lanes);
                    self.park(pc, running);
                    pc = g.pc;
                }
            }

            let instr = p.instrs[pc];
            self.counts.dispatches += 1;
            self.counts.instrs += sel.len() as u64;
            pc = match instr {
                Instr::Jump { to } => to as usize,
                // a loop condition usually holds, or fails, for every lane
                // at once: count before splitting
                Instr::JumpUnlessCmpK { op, a, to, k } if sel.len() == n => {
                    let xs = &self.nums[a as usize * n..][..n];
                    let held = hoist!(op, holds, [VmCmp::Eq, VmCmp::Ne, VmCmp::Lt, VmCmp::Le, VmCmp::Gt, VmCmp::Ge], f => {
                        xs.iter().filter(|&&x| f(x, k)).count()
                    });
                    match held {
                        0 => to as usize,
                        h if h == n => pc + 1,
                        _ => self.split(instr, pc, to, &mut sel, &mut taken),
                    }
                }
                Instr::JumpIf { to, .. }
                | Instr::JumpIfNot { to, .. }
                | Instr::JumpUnlessCmp { to, .. }
                | Instr::JumpUnlessCmpK { to, .. }
                | Instr::SkipIfPrefiltered { to, .. }
                | Instr::LoopNext { exit: to, .. } => {
                    self.split(instr, pc, to, &mut sel, &mut taken)
                }
                _ => {
                    self.issue(cx, buf, instr, &mut sel);
                    pc + 1
                }
            };
        }
        sel.clear();
        self.spare.push(sel);
        self.spare.push(taken);
        self.flush(p, n, buf);
    }

    /// Split the running group `sel` by each lane's decision on the
    /// branch `instr`: lanes that fall through stay, lanes that jump to
    /// `to` are parked there. Returns where the running group continues.
    fn split(
        &mut self,
        instr: Instr,
        pc: usize,
        to: u32,
        sel: &mut Vec<Lane>,
        taken: &mut Vec<Lane>,
    ) -> usize {
        taken.clear();
        sel.retain(|&l| {
            let jumps = self.jumps(instr, l as usize);
            if jumps {
                taken.push(l);
            }
            !jumps
        });
        if taken.is_empty() {
            pc + 1
        } else if sel.is_empty() {
            std::mem::swap(sel, taken);
            to as usize
        } else {
            let fresh = self.spare.pop().unwrap_or_default();
            self.park(to as usize, std::mem::replace(taken, fresh));
            pc + 1
        }
    }

    /// Whether lane `l` takes the conditional branch `instr` (advancing
    /// its loop frame on `LoopNext`).
    fn jumps(&mut self, instr: Instr, l: usize) -> bool {
        let n = self.other.len();
        let at = |r: Reg| r as usize * n + l;
        match instr {
            Instr::JumpIf { cond, .. } => self.bools[at(cond)],
            Instr::JumpIfNot { cond, .. } => !self.bools[at(cond)],
            Instr::JumpUnlessCmp { op, a, b, .. } => !op.holds(self.nums[at(a)], self.nums[at(b)]),
            Instr::JumpUnlessCmpK { op, a, k, .. } => !op.holds(self.nums[at(a)], k),
            Instr::SkipIfPrefiltered { slot, .. } => self.loops[at(slot as Reg)].prefiltered,
            Instr::LoopNext { slot, .. } => {
                let frame = &mut self.loops[at(slot as Reg)];
                let next = frame.cands.get(frame.idx).copied();
                frame.idx += usize::from(next.is_some());
                self.other[l] = next.or(frame.saved_other);
                next.is_none()
            }
            _ => unreachable!("not a conditional branch: {instr:?}"),
        }
    }

    /// Issue a straight-line instruction to the lanes of `sel`: the hot
    /// arithmetic as one loop over contiguous register columns when every
    /// lane is active, each lane's own [`Vm::step`] otherwise. Lanes that
    /// fail leave `sel`.
    fn issue(&mut self, cx: &Chunk, buf: &mut EffectBuffer, instr: Instr, sel: &mut Vec<Lane>) {
        let n = cx.ids.len();
        if sel.len() == n {
            let col = |r: Reg| r as usize * n..(r as usize + 1) * n;
            match instr {
                Instr::LoadNum { dst, val } => {
                    self.nums[col(dst)].fill(val);
                    return;
                }
                Instr::ArithK { op, rev, dst, a, k } => {
                    arith_kernel(&mut self.nums, n, op, rev, dst, a, std::iter::repeat(k));
                    return;
                }
                Instr::Arith { op, dst, a, b } => {
                    self.tmp.clear();
                    self.tmp.extend_from_slice(&self.nums[col(b)]);
                    let rhs = self.tmp.iter().copied();
                    arith_kernel(&mut self.nums, n, op, false, dst, a, rhs);
                    return;
                }
                Instr::ConsumeFuel if self.fuel.iter().fold(true, |ok, &f| ok & (f > 0)) => {
                    self.fuel.iter_mut().for_each(|f| *f -= 1);
                    return;
                }
                _ => {}
            }
        }
        let mut failed = false;
        for &l in sel.iter() {
            if let Err(e) = self.step(cx, buf, instr, l as usize) {
                self.errs[l as usize] = Some(e);
                failed = true;
            }
        }
        if failed {
            sel.retain(|&l| self.errs[l as usize].is_none());
        }
    }

    /// One straight-line instruction for lane `l`: the scalar semantics,
    /// exactly as a per-entity run retires it.
    fn step(
        &mut self,
        cx: &Chunk,
        buf: &mut EffectBuffer,
        instr: Instr,
        l: usize,
    ) -> Result<(), RuntimeError> {
        let Chunk { p, world, ids, opts } = *cx;
        let n = ids.len();
        let at = |r: Reg| r as usize * n + l;
        let self_id = ids[l];
        let subject = |s| subj_id(self_id, self.other[l], s);
        match instr {
            Instr::LoadNum { dst, val } => self.nums[at(dst)] = val,
            Instr::LoadBool { dst, val } => self.bools[at(dst)] = val,
            Instr::LoadStr { dst, pool } => {
                let s = &mut self.strs[at(dst)];
                s.clear();
                s.push_str(&p.pool[pool as usize]);
            }
            Instr::CopyNum { dst, src } => self.nums[at(dst)] = self.nums[at(src)],
            Instr::CopyBool { dst, src } => self.bools[at(dst)] = self.bools[at(src)],
            Instr::CopyStr { dst, src } => self.strs[at(dst)] = self.strs[at(src)].clone(),

            // a dead subject reads as missing
            Instr::ReadNum { dst, col, subj } => {
                let id = subject(subj)?;
                let c = world.column_by_id(col).filter(|_| world.is_live(id));
                let v = c.and_then(|c| c.get_number(id.index() as usize));
                self.nums[at(dst)] = v.unwrap_or(0.0);
            }
            Instr::ReadBool { dst, col, subj } => {
                let id = subject(subj)?;
                let c = world.column_by_id(col).filter(|_| world.is_live(id));
                let v = c.and_then(|c| c.get_bool(id.index() as usize));
                self.bools[at(dst)] = v.unwrap_or(false);
            }
            Instr::ReadStr { dst, col, subj } => {
                let val = world.get_str_by_id(subject(subj)?, col).unwrap_or("");
                let s = &mut self.strs[at(dst)];
                s.clear();
                s.push_str(val);
            }
            Instr::ReadAxis { dst, subj, y } => {
                let pp = pos_of(world, subject(subj)?)?;
                self.nums[at(dst)] = (if y { pp.y } else { pp.x }) as f64;
            }

            Instr::Arith { op, dst, a, b } => {
                self.nums[at(dst)] = op.apply(self.nums[at(a)], self.nums[at(b)]);
            }
            Instr::ArithK { op, rev, dst, a, k } => {
                let x = self.nums[at(a)];
                self.nums[at(dst)] = if rev { op.apply(k, x) } else { op.apply(x, k) };
            }
            Instr::Neg { dst, src } => self.nums[at(dst)] = -self.nums[at(src)],
            Instr::Not { dst, src } => self.bools[at(dst)] = !self.bools[at(src)],
            Instr::MinNum { dst, a, b } => {
                self.nums[at(dst)] = self.nums[at(a)].min(self.nums[at(b)]);
            }
            Instr::MaxNum { dst, a, b } => {
                self.nums[at(dst)] = self.nums[at(a)].max(self.nums[at(b)]);
            }
            Instr::AbsNum { dst, src } => self.nums[at(dst)] = self.nums[at(src)].abs(),
            Instr::ClampNum { dst, x, lo, hi } => {
                let (v, lo, hi) = (self.nums[at(x)], self.nums[at(lo)], self.nums[at(hi)]);
                self.nums[at(dst)] = v.clamp(lo.min(hi), hi.max(lo));
            }
            Instr::CmpNum { op, dst, a, b } => {
                self.bools[at(dst)] = op.holds(self.nums[at(a)], self.nums[at(b)]);
            }
            Instr::CmpBool { op, dst, a, b } => {
                let ord = self.bools[at(a)].cmp(&self.bools[at(b)]);
                self.bools[at(dst)] = cmp_ord(op, ord);
            }
            Instr::CmpStr { op, dst, a, b } => {
                let ord = self.strs[at(a)].cmp(&self.strs[at(b)]);
                self.bools[at(dst)] = cmp_ord(op, ord);
            }
            Instr::Dist { dst } => {
                // interpreter error order: other bound, self positioned,
                // other positioned
                let o = subject(Subject::Other)?;
                let sp = pos_of(world, self_id)?;
                self.nums[at(dst)] = sp.dist(pos_of(world, o)?) as f64;
            }
            Instr::NearestDist { dst, radius } => {
                let r = self.nums[at(radius)];
                let center = pos_of(world, self_id)?;
                neighbors(world, self_id, r, opts.use_index, &mut self.scratch)?;
                let mut best = r;
                for &cand in &self.scratch {
                    if let Some(pp) = world.pos(cand) {
                        best = best.min(pp.dist(center) as f64);
                    }
                }
                self.nums[at(dst)] = best;
            }

            Instr::ConsumeFuel => {
                let fuel = &mut self.fuel[l];
                if *fuel == 0 {
                    return Err(RuntimeError::LoopFuelExhausted {
                        limit: opts.loop_fuel,
                    });
                }
                *fuel -= 1;
            }
            Instr::CheckOther => {
                subject(Subject::Other)?;
            }
            Instr::Fail { err } => return Err(p.fails[err as usize].clone()),

            Instr::LoopBegin { slot, radius, query } => {
                let r = self.nums[at(radius)];
                let frame = &mut self.loops[at(slot as Reg)];
                frame.idx = 0;
                frame.saved_other = self.other[l];
                if query != NO_QUERY && opts.use_index {
                    let center = pos_of(world, self_id)?;
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
                self.counts.probes += 1;
                self.counts.probe_rows += frame.cands.len() as u64;
            }
            Instr::AggFinish { kind, dst, count, sum, min, max } => {
                let cnt = self.nums[at(count)];
                self.nums[at(dst)] = match kind {
                    AggKind::Count => cnt,
                    AggKind::Sum => self.nums[at(sum)],
                    _ if cnt == 0.0 => 0.0,
                    AggKind::Min => self.nums[at(min)],
                    AggKind::Max => self.nums[at(max)],
                    AggKind::Avg => self.nums[at(sum)] / cnt,
                };
            }

            Instr::SetF32 { subj, name, src } => {
                let v = Value::Float(self.nums[at(src)] as f32);
                self.staged.push((l as Lane, subject(subj)?, Some(name), Effect::Set(v)));
            }
            Instr::SetI64 { subj, name, src } => {
                let v = Value::Int(self.nums[at(src)].round() as i64);
                self.staged.push((l as Lane, subject(subj)?, Some(name), Effect::Set(v)));
            }
            Instr::SetBool { subj, name, src } => {
                let v = Value::Bool(self.bools[at(src)]);
                self.staged.push((l as Lane, subject(subj)?, Some(name), Effect::Set(v)));
            }
            Instr::SetStr { subj, name, src } => {
                let v = Value::Str(self.strs[at(src)].clone());
                self.staged.push((l as Lane, subject(subj)?, Some(name), Effect::Set(v)));
            }
            Instr::AddNum { subj, name, src, negate } => {
                let v = self.nums[at(src)];
                let v = if negate { -v } else { v };
                self.staged.push((l as Lane, subject(subj)?, Some(name), Effect::Add(v)));
            }
            Instr::MoveBy { dx, dy } => {
                let v = Effect::AddVec2(self.nums[at(dx)] as f32, self.nums[at(dy)] as f32);
                self.staged.push((l as Lane, self_id, None, v));
            }
            Instr::Despawn => buf.despawn(self_id),
            Instr::Emit { pool } => self.events.push((l as Lane, p.pool[pool as usize].clone())),

            Instr::Jump { .. }
            | Instr::JumpIf { .. }
            | Instr::JumpIfNot { .. }
            | Instr::JumpUnlessCmp { .. }
            | Instr::JumpUnlessCmpK { .. }
            | Instr::LoopNext { .. }
            | Instr::SkipIfPrefiltered { .. } => unreachable!("branches split the group"),
        }
        Ok(())
    }

    /// Push the chunk's staged effects into `buf` lane by lane, each
    /// lane's in issue order: a counting sort over the `n` lanes.
    fn flush(&mut self, p: &Program, n: usize, buf: &mut EffectBuffer) {
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(l, ..) in &self.staged {
            self.offsets[l as usize + 1] += 1;
        }
        for l in 0..n {
            self.offsets[l + 1] += self.offsets[l];
        }
        self.order.clear();
        self.order.resize(self.staged.len(), 0);
        for (i, &(l, ..)) in self.staged.iter().enumerate() {
            let at = &mut self.offsets[l as usize];
            self.order[*at as usize] = i as u32;
            *at += 1;
        }
        for &i in &self.order {
            let (_, id, name, effect) = &mut self.staged[i as usize];
            let name = name.map_or(POS, |i| &p.pool[i as usize]);
            buf.push(*id, name, std::mem::replace(effect, Effect::Add(0.0)));
        }
        self.staged.clear();
    }
}
