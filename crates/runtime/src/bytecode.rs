//! The register-bytecode engine: compile-before-interpret.
//!
//! The tree walker in [`crate::interp`] resolves names, re-matches AST
//! enums, and allocates subscript vectors on every statement execution —
//! fine for an oracle, fatal for throughput (E14 measured parallel
//! *slowdowns* because per-iteration dispatch swamped the worker pool).
//! This module lowers every program unit once, at [`crate::interp::Interp::new`],
//! to a compact register code:
//!
//! * every variable reference is a frame-slot index ([`ped_fortran::SymId`]),
//!   resolved at compile time — no per-iteration lookups;
//! * expressions evaluate through a register file (`Vec<Value>`) reused
//!   across iterations — no per-node recursion;
//! * affine subscripts (`a(i)`, `a(i+1)`, `a(3)`, multi-dim combinations)
//!   get a fused load/store instruction that reads the index variable and
//!   linearizes directly — no subscript vector, no expression dispatch;
//! * the tree walker's cost model is preserved *exactly*: every AST node's
//!   virtual-time charge is folded into the instruction that covers it, and
//!   every statement/iteration/call charges the same [`ExecState::tick`]
//!   against the same shared step budget, so `max_steps` aborts at the
//!   same statement in either engine and `vtime` stays bit-identical
//!   (every charge is an integer-valued f64, summed exactly).
//!
//! **Two engines, one semantics.** Shadow logging, reduction operand
//! recognition, profile entries, and error messages are all routed through
//! the same code paths the tree walker uses (`red_assign`, `make_frame`,
//! `eval_bin`, `eval_intrinsic`), or mirror them instruction-for-
//! instruction; the differential oracle in `tests/engine_oracle.rs` holds
//! the two engines bit-identical across every mode and schedule.
//!
//! Control flow is structured: `IF` arms compile to forward jumps inside a
//! flat [`Code`] block, `DO` loops keep their body as a separate block
//! (which is what lets the worker pool dispatch a compiled chunk closure —
//! see `LoopJob::cdo`), and calls execute the callee's compiled unit with
//! a fresh register file.

use crate::interp::{
    const_value, eval_bin, eval_intrinsic, eval_neg, num2, ChunkTap, ExecState, Flow, Interp,
    IterSpace, RtError,
};
use crate::memory::{ArrayCell, Cell, Frame};
use crate::value::Value;
use ped_fortran::ast::Intrinsic;
use ped_fortran::symbols::Const;
use ped_fortran::{
    BinOp, DoLoop, Expr, LValue, Program, ProgramUnit, RedOp, StmtId, StmtKind, SymId, Ty, UnOp,
};
use std::collections::HashSet;
use std::sync::Arc;

/// A straight-line block of instructions (plus internal forward jumps).
pub(crate) type Code = Vec<Inst>;

/// A loop body as one engine runs it (see [`Interp::drive`]).
#[derive(Clone, Copy)]
pub(crate) enum LoopBody<'b> {
    /// The walker's statements (chunks of tree-engine jobs).
    Tree(&'b [StmtId]),
    /// Register code, with its straight-line fast form when it has one.
    Code(&'b Code, Option<&'b FastBody>),
}

/// One instruction: opcode plus its pre-charged cost.
///
/// `cost` is the virtual time charged when the instruction executes — the
/// sum of the tree walker's per-node charges for the AST region this
/// instruction covers. `tick` marks the first instruction of a statement:
/// it routes the charge through [`ExecState::tick`] (one budget step, like
/// the walker's per-statement `tick(1.0)`); all other charges are plain
/// `vtime` additions, exactly like `eval`'s per-node accounting.
#[derive(Debug)]
pub(crate) struct Inst {
    pub(crate) op: Op,
    pub(crate) cost: f64,
    pub(crate) tick: bool,
}

/// Opcodes. Registers are `u16` indices into the unit's register file.
#[derive(Debug)]
pub(crate) enum Op {
    /// No effect (CONTINUE / removed statements still tick).
    Nop,
    /// `regs[dst] = v` (literals and folded PARAMETER constants).
    Const { dst: u16, v: Value },
    /// Scalar load through the frame slot (records a shadow read).
    LoadVar { dst: u16, sym: SymId },
    /// Scalar store through the frame slot (records a shadow write).
    StoreVar { sym: SymId, src: u16 },
    /// Array load; subscripts are in `regs[base..base+n]`.
    LoadElem { dst: u16, sym: SymId, base: u16, n: u16 },
    /// Array store of `regs[src]`; subscripts in `regs[base..base+n]`.
    StoreElem { sym: SymId, base: u16, n: u16, src: u16 },
    /// Affine fast-path array load: subscripts come straight from index
    /// variables plus constant addends (plan in the unit's `affs` pool).
    /// Only compiled when shadow logging is off.
    LoadElemA { dst: u16, sym: SymId, plan: u32 },
    /// Affine fast-path array store.
    StoreElemA { sym: SymId, plan: u32, src: u16 },
    /// Arithmetic negate (errors on LOGICAL, like the walker).
    Neg { dst: u16, src: u16 },
    /// Logical not.
    Not { dst: u16, src: u16 },
    /// Binary operator via the shared [`eval_bin`].
    Bin { op: BinOp, dst: u16, l: u16, r: u16 },
    /// Intrinsic via the shared [`eval_intrinsic`]; args in
    /// `regs[base..base+n]`.
    Intr { op: Intrinsic, dst: u16, base: u16, n: u16 },
    /// Unconditional forward jump (absolute index in this block).
    Jump(u32),
    /// Jump when `regs[cond]` is false (IF arms, `.AND.` short-circuit).
    JumpIfFalse { cond: u16, target: u32 },
    /// Jump when `regs[cond]` is true (`.OR.` short-circuit).
    JumpIfTrue { cond: u16, target: u32 },
    /// Execute a DO loop (plan in the unit's `dos` pool; bounds already
    /// evaluated into the plan's registers by the preceding instructions).
    Do(u32),
    /// Call a procedure (plan in `calls`); when `want`, the function
    /// result lands in `regs[dst]`.
    Call { plan: u32, dst: u16, want: bool },
    /// PRINT (plan in `prints`; value items already in registers).
    Print(u32),
    /// Reduction gate on a scalar assignment: when the target cell is
    /// under reduction-operand watching (worker chunks of a
    /// `reduction(...)` loop), route the store through the tree walker's
    /// `red_assign` recognizer and skip the compiled store. This is the
    /// slow-path route only: fast bodies whose accumulator stores are all
    /// recognized at compile time (`FastBody::red_ok`) log operands
    /// directly through [`FastOp::RedLog`] instead — E14 measured the
    /// per-store gate escape at ~14x *slower* than serial. Either route
    /// keeps operand logs bit-identical to serial.
    RedGate { plan: u32, skip: u32 },
    /// RETURN.
    Return,
    /// STOP.
    Stop,
    /// Deterministic runtime error (message in the unit's `msgs` pool).
    Fail(u32),
}

/// Affine subscript plan: per dimension, `addend + value(sym)` where a
/// `None` sym means a compile-time constant subscript. Index variables are
/// loaded with the walker's wrapping integer arithmetic.
#[derive(Debug)]
pub(crate) struct AffinePlan {
    dims: Vec<(Option<SymId>, i64)>,
}

/// A compiled DO loop: the AST loop (for the pool / clause info), its
/// profile key, the registers holding its evaluated bounds, the compiled
/// body block, and — when the body is straight-line — its fast form.
#[derive(Debug)]
pub(crate) struct CompiledLoop<'p> {
    sid: StmtId,
    d: &'p DoLoop,
    lo: u16,
    hi: u16,
    step: Option<u16>,
    body: Code,
    fast: Option<FastBody>,
}

/// Where an affine subscript dimension reads its index from.
#[derive(Debug, Clone, Copy)]
enum IdxSrc {
    /// The loop's own control variable: read the in-flight value, no cell.
    Iter,
    /// A promoted scalar (an outer loop's variable, say): a register.
    Reg(u16),
    /// Compile-time constant subscript; the addend carries the value.
    Konst,
}

/// A fast-path array access: the symbol (for bounds messages and per-entry
/// cell resolution) and the per-dimension `(source, addend)` plan.
/// Generic-subscript accesses (`a(expr)`) leave `dims` empty — their
/// subscripts come from registers at the use site.
#[derive(Debug)]
struct FastAcc {
    sym: SymId,
    dims: Vec<(IdxSrc, i64)>,
}

/// A fast operand: a register, a folded constant, or the in-flight loop
/// variable. Folding constants and copies into operands is what lets the
/// optimizer drop the ops that produced them.
#[derive(Debug, Clone, Copy)]
enum Opnd {
    Reg(u16),
    Imm(Value),
    Iter,
}

/// Fast-path opcodes. Same register file as the slow block (promoted
/// scalars live in extra registers past the unit's high-water mark), but
/// cells are pre-resolved per loop entry and nothing charges — the
/// iteration is charged in bulk.
#[derive(Debug)]
enum FastOp {
    /// Materialize a constant (kept only when a register-range consumer
    /// needs the value in place).
    Const { dst: u16, v: Value },
    /// Materialize the loop variable (kept only for range consumers).
    LoadIter { dst: u16 },
    /// Register move (kept only for range consumers).
    Copy { dst: u16, src: u16 },
    /// Write-through to a promoted scalar: `regs[p] = src.coerce(ty)` —
    /// the same coercion the cell store performs, so promoted reads are
    /// bit-identical to reloading the cell.
    StoreP { p: u16, slot: u16, src: Opnd },
    /// Affine access through resolved-access slot `a`.
    LoadA { dst: u16, a: u16 },
    StoreA { a: u16, src: Opnd },
    /// Generic-subscript access: values in `regs[base..base+n]`.
    LoadN { dst: u16, a: u16, base: u16, n: u16 },
    StoreN { a: u16, base: u16, n: u16, src: Opnd },
    Neg { dst: u16, src: Opnd },
    Not { dst: u16, src: Opnd },
    Bin { op: BinOp, dst: u16, l: Opnd, r: Opnd },
    Intr { op: Intrinsic, dst: u16, base: u16, n: u16 },
    /// Log an accumulation operand for reduction `red` (index into the
    /// loop's `reduction(...)` clause). Spliced by `red_recognize`
    /// immediately before the spine operator that consumes the operand,
    /// so the logged value is exactly what the fold consumes; a no-op
    /// when the caller supplies no operand buffers (serial execution).
    /// Charges nothing — `red_assign` charges what the plain evaluation
    /// would have, and the plain evaluation is exactly what runs here.
    RedLog { red: u16, src: Opnd },
}

/// A straight-line loop body in fast form: no jumps, calls, prints, nested
/// loops, or control flow — so the per-iteration charge is a compile-time
/// constant and every cell the body touches can be resolved once per loop
/// entry instead of once per access.
///
/// Three compile-time transforms carry the throughput:
///
/// * **scalar promotion** — every scalar the body reads or writes lives in
///   a dedicated register past the unit's high-water mark; cells are read
///   once at promotion (`prologue`) and written back at every fast/slow
///   boundary (`flush`), so the cell always holds exactly what the slow
///   path would have left there whenever anything else can look;
/// * **constant/copy folding** — constants, loop-variable reads, and
///   register moves become operands of their consumers and the producing
///   ops are dropped (kept only when a register-range consumer like an
///   intrinsic call needs the value materialized in place);
/// * **bulk charging** — `steps`/`cost` fold the walker's per-iteration
///   `tick(2.0)` with every instruction's tick and vtime charge; all
///   charges are integer-valued f64s, so the bulk sum is bit-identical to
///   the slow path's running sum.
///
/// Two guards keep the observable semantics exact: a fast iteration only
/// runs while the budget grant already covers the whole iteration
/// (`granted >= steps`) — otherwise that iteration runs through the slow
/// path, whose per-tick refill/abort is the walker's, so `max_steps`
/// aborts at the identical statement; and when an op faults, the charges
/// of the original instructions past it are rolled back (`origs` maps
/// each kept op to its original position), leaving `steps`/`vtime`
/// exactly where the slow path would have stopped.
#[derive(Debug)]
pub(crate) struct FastBody {
    ops: Vec<FastOp>,
    /// `ops[i]` came from original instruction `origs[i]` (fault rollback).
    origs: Vec<u16>,
    /// Per ORIGINAL instruction `(cost, tick)` — rollback data.
    charge: Vec<(f64, bool)>,
    /// Scalar symbols, promoted to `regs[base + slot]`.
    scalars: Vec<SymId>,
    /// Array accesses, resolved once per loop entry.
    accs: Vec<FastAcc>,
    /// Promoted slots the body stores to (the flush set).
    stored: Vec<u16>,
    /// First promoted register (the unit's register high-water mark).
    base: u16,
    /// Register-file size needed: `base + scalars.len()`.
    pub(crate) nregs: usize,
    /// Per-iteration budget steps (iteration tick + statement ticks).
    pub(crate) steps: u64,
    /// Per-iteration vtime (iteration 2.0 + every instruction's cost).
    cost: f64,
    /// Every store to a `reduction(...)` accumulator was recognized as
    /// the same fold spine `red_assign` matches at runtime, the operands
    /// are captured by spliced [`FastOp::RedLog`] ops, and nothing else
    /// in the body reads an accumulator — so worker chunks may run this
    /// body fast even while the reduction cells are watched.
    pub(crate) red_ok: bool,
    /// All-f64 specialization, when static types allow one.
    pub(crate) typed: Option<TypedBody>,
}

/// A typed f64 operand.
#[derive(Debug, Clone, Copy)]
enum FOpnd {
    /// An f64 register.
    F(u16),
    /// A folded constant, already converted (`as_real`).
    Imm(f64),
    /// The loop variable, converted on read (`cur as f64` — exactly the
    /// `as_real` promotion `num2` applies to a mixed Int operand).
    Iter,
}

/// Typed f64 opcodes — the all-Real specialization of [`FastOp`]. Every
/// operation here is the exact f64 arithmetic `eval_bin`/`eval_neg`
/// perform once `num2` promotion has happened, so results are
/// bit-identical; the only faults left are subscript bounds.
#[derive(Debug)]
enum TOp {
    LoadA { dst: u16, a: u16 },
    StoreA { a: u16, src: FOpnd },
    /// Promoted-scalar write: `REAL` cells coerce to Real, which for an
    /// already-f64 value is the identity, so this is a register move.
    StoreP { p: u16, src: FOpnd },
    Add { dst: u16, l: FOpnd, r: FOpnd },
    Sub { dst: u16, l: FOpnd, r: FOpnd },
    Mul { dst: u16, l: FOpnd, r: FOpnd },
    Div { dst: u16, l: FOpnd, r: FOpnd },
    Pow { dst: u16, l: FOpnd, r: FOpnd },
    Neg { dst: u16, src: FOpnd },
    /// Typed form of [`FastOp::RedLog`]: the operand is statically Real
    /// (or an Int the fold would promote with the identical `as f64`
    /// conversion `num2` applies), so logging the converted value merges
    /// bit-identically.
    RedLog { red: u16, src: FOpnd },
}

/// The all-f64 specialization of a fast body: raw `f64` registers, no
/// `Value` tags, no coercion dispatch. Compiled when static types prove
/// every computed value Real: all arrays and stored scalars declared
/// `REAL`/`DOUBLE`, integer scalars appearing only as subscript sources,
/// and no integer-by-integer arithmetic (whose wrapping semantics have no
/// f64 analogue). Declared types can lie across call boundaries (a caller
/// may bind an `INTEGER` cell to a `REAL` dummy), so [`Interp::fast_resolve`]
/// re-verifies every cell's type before the typed tier is allowed to run.
#[derive(Debug)]
pub(crate) struct TypedBody {
    ops: Vec<TOp>,
    /// Same fault-rollback mapping as [`FastBody::origs`].
    origs: Vec<u16>,
    /// Real promoted slots: live in `fregs[base + slot]`.
    real_slots: Vec<u16>,
    /// Integer promoted slots: subscript sources only, loop-invariant
    /// (the body never stores them), loaded once per entry into `iregs`.
    int_slots: Vec<u16>,
}

/// Try to specialize a compacted fast body to all-f64 ops.
fn typed_compile(fb: &FastBody, unit: &ProgramUnit) -> Option<TypedBody> {
    #[derive(Clone, Copy, PartialEq)]
    enum T {
        I,
        R,
    }
    let slot_ty = |slot: u16| unit.symbols.sym(fb.scalars[slot as usize]).ty;
    // Every array the body touches must be Real, and every access affine
    // (generic subscripts imply LoadN/StoreN, which have no typed form).
    for fa in &fb.accs {
        if !matches!(unit.symbols.sym(fa.sym).ty, Ty::Real | Ty::Double) {
            return None;
        }
        for &(src, _) in &fa.dims {
            if let IdxSrc::Reg(r) = src {
                if slot_ty(r - fb.base) != Ty::Integer {
                    return None;
                }
            }
        }
    }
    // Stored scalars must be Real (their cells receive Real coercions).
    for &slot in &fb.stored {
        if !matches!(slot_ty(slot), Ty::Real | Ty::Double) {
            return None;
        }
    }
    let mut ty: Vec<Option<T>> = vec![None; fb.nregs];
    for (slot, &s) in fb.scalars.iter().enumerate() {
        ty[fb.base as usize + slot] = match unit.symbols.sym(s).ty {
            Ty::Real | Ty::Double => Some(T::R),
            // Integer slots never appear as operands (checked below);
            // typing them I lets the check be uniform.
            Ty::Integer => Some(T::I),
            Ty::Logical => return None,
        };
    }
    let conv = |o: Opnd, ty: &[Option<T>]| -> Option<(FOpnd, T)> {
        match o {
            Opnd::Reg(r) => match ty[r as usize] {
                Some(T::R) => Some((FOpnd::F(r), T::R)),
                // An Int register operand would need wrapping-int ops.
                _ => None,
            },
            Opnd::Imm(v) => match v {
                Value::Int(i) => Some((FOpnd::Imm(i as f64), T::I)),
                Value::Real(x) => Some((FOpnd::Imm(x), T::R)),
                Value::Logical(_) => None,
            },
            Opnd::Iter => Some((FOpnd::Iter, T::I)),
        }
    };
    let mut ops = Vec::with_capacity(fb.ops.len());
    let mut origs = Vec::with_capacity(fb.ops.len());
    for (j, op) in fb.ops.iter().enumerate() {
        let t = match op {
            FastOp::LoadA { dst, a } => {
                ty[*dst as usize] = Some(T::R);
                TOp::LoadA { dst: *dst, a: *a }
            }
            FastOp::StoreA { a, src } => {
                let (s, _) = conv(*src, &ty)?;
                TOp::StoreA { a: *a, src: s }
            }
            FastOp::StoreP { p, src, .. } => {
                let (s, _) = conv(*src, &ty)?;
                TOp::StoreP { p: *p, src: s }
            }
            FastOp::Bin { op, dst, l, r } => {
                let (lo, lt) = conv(*l, &ty)?;
                let (ro, rt) = conv(*r, &ty)?;
                if lt == T::I && rt == T::I {
                    // both-Int arithmetic stays on the wrapping-int path
                    return None;
                }
                ty[*dst as usize] = Some(T::R);
                let (dst, l, r) = (*dst, lo, ro);
                match op {
                    BinOp::Add => TOp::Add { dst, l, r },
                    BinOp::Sub => TOp::Sub { dst, l, r },
                    BinOp::Mul => TOp::Mul { dst, l, r },
                    BinOp::Div => TOp::Div { dst, l, r },
                    BinOp::Pow => TOp::Pow { dst, l, r },
                    _ => return None, // comparisons/logical produce LOGICAL
                }
            }
            FastOp::Neg { dst, src } => {
                let (s, st) = conv(*src, &ty)?;
                if st == T::I {
                    return None; // Int negate wraps
                }
                ty[*dst as usize] = Some(T::R);
                TOp::Neg { dst: *dst, src: s }
            }
            FastOp::RedLog { red, src } => {
                let (s, _) = conv(*src, &ty)?;
                TOp::RedLog { red: *red, src: s }
            }
            // Materialized producers (range-op feeds, revived copies) and
            // everything else keep the generic tier.
            _ => return None,
        };
        ops.push(t);
        origs.push(fb.origs[j]);
    }
    let mut real_slots = Vec::new();
    let mut int_slots = Vec::new();
    for slot in 0..fb.scalars.len() as u16 {
        match slot_ty(slot) {
            Ty::Real | Ty::Double => real_slots.push(slot),
            Ty::Integer => int_slots.push(slot),
            Ty::Logical => unreachable!("bailed above"),
        }
    }
    Some(TypedBody { ops, origs, real_slots, int_slots })
}

impl TypedBody {
    /// Load promoted scalars into the typed register files.
    #[inline]
    pub(crate) fn prologue(
        &self,
        fb: &FastBody,
        ctx: &FastCtx<'_>,
        fregs: &mut [f64],
        iregs: &mut [i64],
    ) {
        for &slot in &self.real_slots {
            fregs[fb.base as usize + slot as usize] =
                ctx.cells[slot as usize].load_scalar().as_real();
        }
        for &slot in &self.int_slots {
            iregs[slot as usize] = ctx.cells[slot as usize].load_scalar().as_int();
        }
    }

    /// Write stored promoted scalars back (cells are Real: exact bits).
    #[inline]
    pub(crate) fn flush(&self, fb: &FastBody, ctx: &FastCtx<'_>, fregs: &[f64]) {
        for &slot in &fb.stored {
            ctx.cells[slot as usize]
                .store_scalar(Value::Real(fregs[fb.base as usize + slot as usize]));
        }
    }
}

impl FastBody {
    /// Number of promoted scalar slots (sizes the typed `iregs` file).
    pub(crate) fn nslots(&self) -> usize {
        self.scalars.len()
    }

    /// Load every promoted scalar from its cell (entering fast mode).
    #[inline]
    pub(crate) fn prologue(&self, ctx: &FastCtx<'_>, regs: &mut [Value]) {
        for (k, cell) in ctx.cells.iter().enumerate() {
            regs[self.base as usize + k] = cell.load_scalar();
        }
    }

    /// Write every stored promoted scalar back to its cell (leaving fast
    /// mode — before a slow iteration, a fault, or the loop exit).
    #[inline]
    pub(crate) fn flush(&self, ctx: &FastCtx<'_>, regs: &[Value]) {
        for &slot in &self.stored {
            ctx.cells[slot as usize].store_scalar(regs[self.base as usize + slot as usize]);
        }
    }
}

/// Try to put a loop body in fast form. Bails (returns `None`) on any
/// control flow, nested loop, call, print, explicit failure, or a store
/// to the loop variable itself — those bodies stay on the slow path.
fn fast_compile(
    body: &Code,
    affs: &[AffinePlan],
    var: SymId,
    base: u16,
    unit: &ProgramUnit,
    reds: &[(RedOp, SymId)],
) -> Option<FastBody> {
    let mut scalars: Vec<SymId> = Vec::new();
    let mut accs: Vec<FastAcc> = Vec::new();
    let mut stored: Vec<u16> = Vec::new();
    let mut steps = 1u64; // the iteration tick
    let mut cost = 2.0; // its 2.0 vtime
    let mut charge = Vec::with_capacity(body.len());
    let mut ops: Vec<FastOp> = Vec::with_capacity(body.len());
    // `None` marks dropped (charge-only) positions; `ops` stays aligned
    // with `body` until the final compaction.
    let mut keep: Vec<bool> = Vec::with_capacity(body.len());

    let slot = |scalars: &mut Vec<SymId>, s: SymId| -> u16 {
        match scalars.iter().position(|&t| t == s) {
            Some(i) => i as u16,
            None => {
                scalars.push(s);
                (scalars.len() - 1) as u16
            }
        }
    };

    // ---- pass 0: translate, promoting scalars as we go ----
    for inst in body {
        let op = match &inst.op {
            // The reduction gate never executes on the fast path: entry
            // requires either an empty watch set or a `red_ok` body,
            // whose accumulator stores log through `RedLog` instead.
            // CONTINUE only charges.
            Op::Nop | Op::RedGate { .. } => None,
            Op::Const { dst, v } => Some(FastOp::Const { dst: *dst, v: *v }),
            Op::LoadVar { dst, sym } if *sym == var => Some(FastOp::LoadIter { dst: *dst }),
            Op::LoadVar { dst, sym } => {
                let c = slot(&mut scalars, *sym);
                Some(FastOp::Copy { dst: *dst, src: base + c })
            }
            Op::StoreVar { sym, .. } if *sym == var => return None,
            Op::StoreVar { sym, src } => {
                let c = slot(&mut scalars, *sym);
                if !stored.contains(&c) {
                    stored.push(c);
                }
                Some(FastOp::StoreP { p: base + c, slot: c, src: Opnd::Reg(*src) })
            }
            Op::LoadElemA { dst, sym, plan } | Op::StoreElemA { sym, plan, src: dst } => {
                let dims = affs[*plan as usize]
                    .dims
                    .iter()
                    .map(|&(isym, add)| match isym {
                        Some(s) if s == var => (IdxSrc::Iter, add),
                        Some(s) => (IdxSrc::Reg(base + slot(&mut scalars, s)), add),
                        None => (IdxSrc::Konst, add),
                    })
                    .collect();
                accs.push(FastAcc { sym: *sym, dims });
                let a = (accs.len() - 1) as u16;
                Some(match &inst.op {
                    Op::LoadElemA { .. } => FastOp::LoadA { dst: *dst, a },
                    _ => FastOp::StoreA { a, src: Opnd::Reg(*dst) },
                })
            }
            Op::LoadElem { dst, sym, base: b, n } => {
                accs.push(FastAcc { sym: *sym, dims: Vec::new() });
                let a = (accs.len() - 1) as u16;
                Some(FastOp::LoadN { dst: *dst, a, base: *b, n: *n })
            }
            Op::StoreElem { sym, base: b, n, src } => {
                accs.push(FastAcc { sym: *sym, dims: Vec::new() });
                let a = (accs.len() - 1) as u16;
                Some(FastOp::StoreN { a, base: *b, n: *n, src: Opnd::Reg(*src) })
            }
            Op::Neg { dst, src } => Some(FastOp::Neg { dst: *dst, src: Opnd::Reg(*src) }),
            Op::Not { dst, src } => Some(FastOp::Not { dst: *dst, src: Opnd::Reg(*src) }),
            Op::Bin { op, dst, l, r } => {
                Some(FastOp::Bin { op: *op, dst: *dst, l: Opnd::Reg(*l), r: Opnd::Reg(*r) })
            }
            Op::Intr { op, dst, base: b, n } => {
                Some(FastOp::Intr { op: *op, dst: *dst, base: *b, n: *n })
            }
            Op::Jump(_)
            | Op::JumpIfFalse { .. }
            | Op::JumpIfTrue { .. }
            | Op::Do(_)
            | Op::Call { .. }
            | Op::Print(_)
            | Op::Return
            | Op::Stop
            | Op::Fail(_) => return None,
        };
        charge.push((inst.cost, inst.tick));
        steps += inst.tick as u64;
        cost += inst.cost;
        match op {
            Some(o) => {
                ops.push(o);
                keep.push(true);
            }
            None => {
                // placeholder keeps alignment; compacted away below
                ops.push(FastOp::Copy { dst: 0, src: 0 });
                keep.push(false);
            }
        }
    }

    // ---- pass 1: registers consumed as contiguous ranges stay put ----
    let mut pinned: HashSet<u16> = HashSet::new();
    for (i, op) in ops.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        if let FastOp::LoadN { base: b, n, .. }
        | FastOp::StoreN { base: b, n, .. }
        | FastOp::Intr { base: b, n, .. } = op
        {
            for r in *b..b.saturating_add(*n) {
                pinned.insert(r);
            }
        }
    }

    // ---- pass 2: fold constants / loop-var reads / copies into their
    // consumers, dropping producers that nothing else needs. Bindings are
    // always resolved to a *materialized* root, so a dropped producer can
    // be revived (un-dropped) when a later overwrite of its source makes
    // the binding stale while its value is still wanted. ----
    #[derive(Clone, Copy)]
    struct Ent {
        b: Opnd, // Reg roots are materialized at origin time
        origin: usize,
        valid: bool,
    }
    let mut ents: std::collections::HashMap<u16, Ent> = std::collections::HashMap::new();
    let mut dropped: Vec<bool> = vec![false; ops.len()];

    fn resolve(
        r: u16,
        ents: &std::collections::HashMap<u16, Ent>,
        dropped: &mut [bool],
    ) -> Opnd {
        match ents.get(&r) {
            Some(e) if e.valid => e.b,
            Some(e) => {
                // Stale binding: the value is still in `r` only if the
                // producing op actually ran — revive it.
                dropped[e.origin] = false;
                Opnd::Reg(r)
            }
            None => Opnd::Reg(r),
        }
    }

    for i in 0..ops.len() {
        if !keep[i] {
            continue;
        }
        // substitute operand reads
        {
            let (e, d) = (&ents, &mut dropped);
            let mut subst = |o: &mut Opnd| {
                if let Opnd::Reg(r) = *o {
                    *o = resolve(r, e, d);
                }
            };
            match &mut ops[i] {
                FastOp::StoreP { src, .. }
                | FastOp::StoreA { src, .. }
                | FastOp::StoreN { src, .. }
                | FastOp::Neg { src, .. }
                | FastOp::Not { src, .. } => subst(src),
                FastOp::Bin { l, r, .. } => {
                    subst(l);
                    subst(r);
                }
                FastOp::Copy { src, .. } => {
                    // handled below (binding creation), nothing to do here
                    let _ = src;
                }
                _ => {}
            }
        }
        // binding creation / invalidation
        let write = |ents: &mut std::collections::HashMap<u16, Ent>, w: u16| {
            ents.remove(&w);
            for e in ents.values_mut() {
                if let Opnd::Reg(s) = e.b {
                    if s == w {
                        e.valid = false;
                    }
                }
            }
        };
        match ops[i] {
            FastOp::Const { dst, v } => {
                write(&mut ents, dst);
                ents.insert(dst, Ent { b: Opnd::Imm(v), origin: i, valid: true });
                if !pinned.contains(&dst) {
                    dropped[i] = true;
                }
            }
            FastOp::LoadIter { dst } => {
                write(&mut ents, dst);
                ents.insert(dst, Ent { b: Opnd::Iter, origin: i, valid: true });
                if !pinned.contains(&dst) {
                    dropped[i] = true;
                }
            }
            FastOp::Copy { dst, src } => {
                let b = resolve(src, &ents, &mut dropped);
                // rewrite to the resolved root so a revived copy reads a
                // materialized register
                if let (FastOp::Copy { src: s, .. }, Opnd::Reg(root)) = (&mut ops[i], b) {
                    *s = root;
                }
                write(&mut ents, dst);
                ents.insert(dst, Ent { b, origin: i, valid: true });
                if !pinned.contains(&dst) {
                    dropped[i] = true;
                }
            }
            FastOp::StoreP { p, .. } => write(&mut ents, p),
            FastOp::LoadA { dst, .. }
            | FastOp::LoadN { dst, .. }
            | FastOp::Neg { dst, .. }
            | FastOp::Not { dst, .. }
            | FastOp::Bin { dst, .. }
            | FastOp::Intr { dst, .. } => write(&mut ents, dst),
            FastOp::StoreA { .. } | FastOp::StoreN { .. } => {}
            // RedLogs are spliced by pass 3, after folding.
            FastOp::RedLog { .. } => unreachable!("RedLog before recognition"),
        }
    }

    // A revived Copy whose binding was consumed as Imm/Iter may have
    // rewritten `src` to itself; those are still correct (dst = regs[src])
    // only when src is materialized — Imm/Iter roots never go stale, so
    // revival only ever happens for Reg roots. Compact.
    let mut final_ops = Vec::new();
    let mut origs = Vec::new();
    for (i, op) in ops.into_iter().enumerate() {
        if keep[i] && !dropped[i] {
            final_ops.push(op);
            origs.push(i as u16);
        }
    }

    // ---- pass 3: reduction-store recognition (splices RedLog ops) ----
    let red_ok = red_recognize(&mut final_ops, &mut origs, &accs, &scalars, base, reds);

    let mut fb = FastBody {
        ops: final_ops,
        origs,
        charge,
        nregs: base as usize + scalars.len(),
        scalars,
        accs,
        stored,
        base,
        steps,
        cost,
        red_ok,
        typed: None,
    };
    fb.typed = typed_compile(&fb, unit);
    Some(fb)
}

/// Register a fast op writes, if any (`StoreP` writes its promoted
/// register; array stores write no register).
fn fast_dst(op: &FastOp) -> Option<u16> {
    match op {
        FastOp::Const { dst, .. }
        | FastOp::LoadIter { dst }
        | FastOp::Copy { dst, .. }
        | FastOp::LoadA { dst, .. }
        | FastOp::LoadN { dst, .. }
        | FastOp::Neg { dst, .. }
        | FastOp::Not { dst, .. }
        | FastOp::Bin { dst, .. }
        | FastOp::Intr { dst, .. } => Some(*dst),
        FastOp::StoreP { p, .. } => Some(*p),
        FastOp::StoreA { .. } | FastOp::StoreN { .. } | FastOp::RedLog { .. } => None,
    }
}

/// Registers a fast op reads: operands, affine index sources, and
/// register ranges. `accs` resolves the index plans of affine accesses.
fn fast_reads(op: &FastOp, accs: &[FastAcc], mut f: impl FnMut(u16)) {
    fn opnd(o: &Opnd, f: &mut impl FnMut(u16)) {
        if let Opnd::Reg(r) = o {
            f(*r);
        }
    }
    match op {
        FastOp::Const { .. } | FastOp::LoadIter { .. } => {}
        FastOp::Copy { src, .. } => f(*src),
        FastOp::StoreP { src, .. }
        | FastOp::Neg { src, .. }
        | FastOp::Not { src, .. }
        | FastOp::RedLog { src, .. } => opnd(src, &mut f),
        FastOp::Bin { l, r, .. } => {
            opnd(l, &mut f);
            opnd(r, &mut f);
        }
        FastOp::LoadA { a, .. } => {
            for &(src, _) in &accs[*a as usize].dims {
                if let IdxSrc::Reg(r) = src {
                    f(r);
                }
            }
        }
        FastOp::StoreA { a, src } => {
            for &(s, _) in &accs[*a as usize].dims {
                if let IdxSrc::Reg(r) = s {
                    f(r);
                }
            }
            opnd(src, &mut f);
        }
        FastOp::LoadN { base, n, .. } | FastOp::Intr { base, n, .. } => {
            for r in *base..base.saturating_add(*n) {
                f(r);
            }
        }
        FastOp::StoreN { base, n, src, .. } => {
            for r in *base..base.saturating_add(*n) {
                f(r);
            }
            opnd(src, &mut f);
        }
    }
}

/// The position of the last def of `r` strictly before `pos` — the def a
/// consumer at `pos` actually reads (registers are reused, so the last
/// def overall can be the consumer's own destination).
fn def_before(
    defs: &std::collections::HashMap<u16, Vec<usize>>,
    r: u16,
    pos: usize,
) -> Option<usize> {
    let v = defs.get(&r)?;
    match v.partition_point(|&p| p < pos) {
        0 => None,
        i => Some(v[i - 1]),
    }
}

/// Recognize the value that reaches an accumulator store as the fold
/// spine `match_accum` matches at runtime — `acc`, `spine ⊕ x`, or
/// `x ⊕ acc` — mirroring its committed left-first semantics exactly.
/// Operand inserts are recorded (in serial fold order: positions increase
/// along the spine) against the consuming operator, where the operand's
/// register is still live; the spine operator that reads the accumulator
/// directly is sanctioned for that read.
#[allow(clippy::too_many_arguments)]
fn trace_spine(
    ops: &[FastOp],
    defs: &std::collections::HashMap<u16, Vec<usize>>,
    spine: BinOp,
    reg: u16,
    o: Opnd,
    pos: usize,
    ri: u16,
    sanction: &mut std::collections::HashMap<usize, u16>,
    inserts: &mut Vec<(usize, u16, Opnd)>,
) -> bool {
    let Opnd::Reg(r) = o else { return false };
    if r == reg {
        return true; // the bare accumulator: the spine's base
    }
    let Some(dj) = def_before(defs, r, pos) else { return false };
    let (op, l, rr) = match &ops[dj] {
        FastOp::Bin { op, l, r, .. } => (*op, *l, *r),
        _ => return false,
    };
    if op != spine {
        return false;
    }
    let is_acc = |o: Opnd| matches!(o, Opnd::Reg(x) if x == reg);
    let mark = inserts.len();
    if trace_spine(ops, defs, spine, reg, l, dj, ri, sanction, inserts) {
        // Committed left-first, like `match_accum`: a matched left spine
        // whose right operand reads the accumulator fails outright.
        if is_acc(rr) || sanction.insert(dj, reg).is_some() {
            inserts.truncate(mark);
            return false;
        }
        inserts.push((dj, ri, rr));
        return true;
    }
    inserts.truncate(mark);
    // `x ⊕ acc`: the right arm is the accumulator *directly* (the folded
    // form of `Var(s)`, exactly the syntactic check `match_accum` makes).
    if is_acc(rr) && !is_acc(l) {
        if sanction.insert(dj, reg).is_some() {
            return false;
        }
        inserts.push((dj, ri, l));
        return true;
    }
    false
}

/// Pass 3 of [`fast_compile`]: prove every store to a `reduction(...)`
/// accumulator is the fold spine the tree walker's `red_assign`
/// recognizes at runtime, splice [`FastOp::RedLog`] ops capturing the
/// accumulation operands in serial fold order, and verify nothing else
/// in the body reads an accumulator register (a stray read would observe
/// the fast path's continuously-accumulated value where the walker's
/// per-iteration identity re-seed holds something else).
///
/// Soundness: in a worker chunk frame every reduction symbol is bound to
/// a fresh cell bound to *only* that symbol, so this static structural
/// recognition and `match_accum`'s dynamic cell-identity recognition
/// accept exactly the same spines — static success implies the walker
/// would have logged the same operand values in the same order. Any
/// failure leaves the ops untouched and returns `false`: the body simply
/// keeps the status-quo slow path under a reduction watch.
fn red_recognize(
    ops: &mut Vec<FastOp>,
    origs: &mut Vec<u16>,
    accs: &[FastAcc],
    scalars: &[SymId],
    base: u16,
    reds: &[(RedOp, SymId)],
) -> bool {
    if reds.is_empty() {
        return false;
    }
    // Accumulator registers by reduction index; a clause symbol the body
    // never references has no register (and nothing to log).
    let accum: Vec<Option<u16>> = reds
        .iter()
        .map(|&(_, s)| scalars.iter().position(|&t| t == s).map(|i| base + i as u16))
        .collect();
    let accum_regs: HashSet<u16> = accum.iter().flatten().copied().collect();
    let mut defs: std::collections::HashMap<u16, Vec<usize>> = Default::default();
    for (j, op) in ops.iter().enumerate() {
        if let Some(d) = fast_dst(op) {
            defs.entry(d).or_default().push(j);
        }
    }
    // Position -> the accumulator register it is sanctioned to read.
    let mut sanction: std::collections::HashMap<usize, u16> = Default::default();
    let mut inserts: Vec<(usize, u16, Opnd)> = Vec::new();
    for (ri, &(rop, _)) in reds.iter().enumerate() {
        let Some(reg) = accum[ri] else { continue };
        let spine = match rop {
            RedOp::Sum => BinOp::Add,
            RedOp::Product => BinOp::Mul,
            // MIN/MAX fold back to per-iteration deltas in the walker,
            // which the fast path cannot capture — stay slow.
            _ => return false,
        };
        for j in 0..ops.len() {
            let (p, src) = match &ops[j] {
                FastOp::StoreP { p, src, .. } => (*p, *src),
                _ => continue,
            };
            if p != reg {
                continue;
            }
            if matches!(src, Opnd::Reg(r) if r == reg) {
                // `s = s`: a spine with no operands (nothing to log).
                if sanction.insert(j, reg).is_some() {
                    return false;
                }
                continue;
            }
            if !trace_spine(ops, &defs, spine, reg, src, j, ri as u16, &mut sanction, &mut inserts)
            {
                return false;
            }
        }
    }
    // No other op may read any accumulator register — not as an operand,
    // an index source, a range element, or a cross-reduction operand
    // (`t = t + s` logs the *cell* value of `s` in the walker, which the
    // fast path does not maintain).
    for (j, op) in ops.iter().enumerate() {
        let mut ok = true;
        fast_reads(op, accs, |r| {
            if accum_regs.contains(&r) && sanction.get(&j) != Some(&r) {
                ok = false;
            }
        });
        if !ok {
            return false;
        }
    }
    if inserts.is_empty() {
        return true;
    }
    // Splice each RedLog immediately before its consuming spine op. The
    // sort is stable, so same-position inserts keep fold order; a
    // RedLog's rollback origin is its consumer's (it cannot fault and
    // charges nothing, so the mapping only needs to stay monotone).
    inserts.sort_by_key(|&(pos, _, _)| pos);
    let mut new_ops = Vec::with_capacity(ops.len() + inserts.len());
    let mut new_origs = Vec::with_capacity(ops.len() + inserts.len());
    let mut it = inserts.into_iter().peekable();
    for (j, op) in ops.drain(..).enumerate() {
        while it.peek().is_some_and(|&(pos, _, _)| pos == j) {
            let (_, ri, src) = it.next().unwrap();
            new_ops.push(FastOp::RedLog { red: ri, src });
            new_origs.push(origs[j]);
        }
        new_ops.push(op);
        new_origs.push(origs[j]);
    }
    *ops = new_ops;
    *origs = new_origs;
    true
}

/// A fast body's cells, resolved against a frame once per loop entry.
/// Frame bindings are immutable while a unit executes, so the slow path's
/// per-access `frame.get` collapses to one lookup per symbol per entry.
pub(crate) struct FastCtx<'f> {
    /// Runtime cell types matched the typed tier's static assumptions —
    /// the all-f64 ops may run. (Declared types can lie across call
    /// boundaries, so this is re-checked per resolution.)
    pub(crate) typed_ok: bool,
    /// Promoted scalar cells, in slot order.
    cells: Vec<&'f Cell>,
    /// Declared type per promoted slot — `StoreP` coerces exactly as the
    /// cell store would, so promoted reads match reloading the cell.
    tys: Vec<Ty>,
    accs: Vec<ResAcc<'f>>,
}

/// One resolved array access.
struct ResAcc<'f> {
    arr: &'f ArrayCell,
    /// Rank-1 declared bounds: `lo <= w <= hi` is the whole bounds check
    /// and `w - lo` the whole linearization (the extent was validated at
    /// allocation, so neither can overflow).
    one: Option<(i64, i64)>,
}

/// Evaluate one affine subscript dimension.
#[inline]
fn fast_idx(src: IdxSrc, add: i64, cur: i64, regs: &[Value]) -> i64 {
    match src {
        IdxSrc::Iter => cur.wrapping_add(add),
        IdxSrc::Reg(r) => regs[r as usize].as_int().wrapping_add(add),
        IdxSrc::Konst => add,
    }
}

/// The walker's exact out-of-bounds message.
#[cold]
fn bounds_err(unit: &ProgramUnit, sym: SymId, idx: &[i64]) -> RtError {
    RtError::new(format!(
        "subscript out of bounds: {}({:?}) in {}",
        unit.symbols.name(sym),
        idx.to_vec(),
        unit.name
    ))
}

/// Flat index of a fast affine access (bounds-checked).
#[inline]
fn fast_flat(
    unit: &ProgramUnit,
    fa: &FastAcc,
    ra: &ResAcc<'_>,
    regs: &[Value],
    cur: i64,
) -> Result<usize, RtError> {
    if let Some((lo, hi)) = ra.one {
        let (src, add) = fa.dims[0];
        let w = fast_idx(src, add, cur, regs);
        if w < lo || w > hi {
            return Err(bounds_err(unit, fa.sym, &[w]));
        }
        return Ok((w - lo) as usize);
    }
    let mut idx = [0i64; 8];
    for (k, &(src, add)) in fa.dims.iter().enumerate() {
        idx[k] = fast_idx(src, add, cur, regs);
    }
    let idx = &idx[..fa.dims.len()];
    ra.arr.linearize(idx).ok_or_else(|| bounds_err(unit, fa.sym, idx))
}

/// How one actual argument is bound (mirrors the walker's `exec_call`).
#[derive(Debug)]
enum ArgPlan {
    /// Plain variable: bind the caller's cell by reference.
    ByRef(SymId),
    /// PARAMETER constant: by value in a temp cell of the formal's type.
    ConstVal { v: Value, ty: Ty },
    /// Array element: copy-in/copy-out through a temp cell; the fragment
    /// evaluates the subscripts into `regs[base..base+n]`.
    Elem { sym: SymId, code: Code, base: u16, n: u16, ty: Ty },
    /// Any other expression: evaluate the fragment, pass by value.
    Val { code: Code, reg: u16, ty: Ty },
}

/// A compiled call site.
#[derive(Debug)]
pub(crate) struct CallPlan<'p> {
    name: &'p str,
    /// Unknown procedure / arity mismatch — raised before any charge,
    /// exactly like the walker.
    err: Option<String>,
    callee: usize,
    args: Vec<ArgPlan>,
}

/// One PRINT item.
#[derive(Debug)]
enum PrintPart<'p> {
    Str(&'p str),
    Reg(u16),
}

/// A compiled PRINT statement.
#[derive(Debug)]
pub(crate) struct PrintPlan<'p> {
    parts: Vec<PrintPart<'p>>,
}

/// A scalar assignment that may hit a watched reduction cell: the symbol
/// and the original rhs, handed to the walker's recognizer when the gate
/// fires.
#[derive(Debug)]
pub(crate) struct RedPlan<'p> {
    sym: SymId,
    rhs: &'p Expr,
}

/// One lowered program unit.
#[derive(Debug)]
pub(crate) struct CompiledUnit<'p> {
    code: Code,
    nregs: usize,
    dos: Vec<CompiledLoop<'p>>,
    calls: Vec<CallPlan<'p>>,
    prints: Vec<PrintPlan<'p>>,
    affs: Vec<AffinePlan>,
    reds: Vec<RedPlan<'p>>,
    msgs: Vec<String>,
}

impl CompiledUnit<'_> {
    /// Compiled body of DO-loop plan `ci` (what worker chunks execute).
    pub(crate) fn loop_body(&self, ci: u32) -> &Code {
        &self.dos[ci as usize].body
    }

    /// Fast form of DO-loop plan `ci`'s body, when it has one.
    pub(crate) fn loop_fast(&self, ci: u32) -> Option<&FastBody> {
        self.dos[ci as usize].fast.as_ref()
    }

    /// Register-file size for this unit (shared by all its blocks).
    pub(crate) fn nregs(&self) -> usize {
        self.nregs
    }
}

/// The whole lowered program.
#[derive(Debug)]
pub(crate) struct CompiledProgram<'p> {
    pub(crate) units: Vec<CompiledUnit<'p>>,
}

/// Lower every unit. `shadow` disables the affine fast path so every
/// access keeps emitting shadow-log records in walker order.
pub(crate) fn compile_program(program: &Program, shadow: bool) -> CompiledProgram<'_> {
    let units = program
        .units
        .iter()
        .map(|unit| {
            let mut lw = Lower {
                prog: program,
                unit,
                shadow,
                code: Code::new(),
                free: 0,
                nregs: 0,
                dos: Vec::new(),
                calls: Vec::new(),
                prints: Vec::new(),
                affs: Vec::new(),
                reds: Vec::new(),
                msgs: Vec::new(),
            };
            lw.block(&unit.body);
            let nregs = lw.nregs;
            {
                // Promoted registers start past the unit's high-water
                // mark, so fast bodies compile only once it's final.
                let Lower { dos, affs, unit, .. } = &mut lw;
                for cl in dos.iter_mut() {
                    let reds = cl
                        .d
                        .parallel
                        .as_ref()
                        .map_or(&[][..], |info| info.reductions.as_slice());
                    cl.fast = fast_compile(&cl.body, affs, cl.d.var, nregs, unit, reds);
                }
            }
            let code = std::mem::take(&mut lw.code);
            CompiledUnit {
                code,
                nregs: lw.nregs as usize,
                dos: lw.dos,
                calls: lw.calls,
                prints: lw.prints,
                affs: lw.affs,
                reds: lw.reds,
                msgs: lw.msgs,
            }
        })
        .collect();
    CompiledProgram { units }
}

/// Per-unit lowering state. Registers are allocated stack-style per
/// statement; `nregs` is the high-water mark.
struct Lower<'p> {
    prog: &'p Program,
    unit: &'p ProgramUnit,
    shadow: bool,
    code: Code,
    free: u16,
    nregs: u16,
    dos: Vec<CompiledLoop<'p>>,
    calls: Vec<CallPlan<'p>>,
    prints: Vec<PrintPlan<'p>>,
    affs: Vec<AffinePlan>,
    reds: Vec<RedPlan<'p>>,
    msgs: Vec<String>,
}

impl<'p> Lower<'p> {
    fn alloc(&mut self) -> u16 {
        let r = self.free;
        self.free = self.free.checked_add(1).expect("register file overflow");
        self.nregs = self.nregs.max(self.free);
        r
    }

    fn emit(&mut self, op: Op, cost: f64) -> usize {
        self.code.push(Inst { op, cost, tick: false });
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at].op {
            Op::Jump(t)
            | Op::JumpIfFalse { target: t, .. }
            | Op::JumpIfTrue { target: t, .. } => *t = target,
            Op::RedGate { skip, .. } => *skip = target,
            _ => unreachable!("patching a non-jump"),
        }
    }

    fn msg(&mut self, m: String) -> u32 {
        self.msgs.push(m);
        (self.msgs.len() - 1) as u32
    }

    fn block(&mut self, block: &'p [StmtId]) {
        for &sid in block {
            let mark = self.free;
            let s0 = self.code.len();
            self.stmt(sid);
            // The statement's first instruction carries the walker's
            // per-statement tick (one step, 1.0 vtime).
            let first = &mut self.code[s0];
            first.tick = true;
            first.cost += 1.0;
            self.free = mark;
        }
    }

    fn stmt(&mut self, sid: StmtId) {
        let unit: &'p ProgramUnit = self.unit;
        match &unit.stmt(sid).kind {
            StmtKind::Assign { lhs, rhs } => self.assign(lhs, rhs),
            StmtKind::If { arms, else_block } => {
                let mut ends = Vec::with_capacity(arms.len());
                for (cond, blk) in arms {
                    let mark = self.free;
                    let rc = self.expr(cond);
                    self.free = mark;
                    let jf = self.emit(Op::JumpIfFalse { cond: rc, target: 0 }, 0.0);
                    self.block(blk);
                    ends.push(self.emit(Op::Jump(0), 0.0));
                    let next = self.here();
                    self.patch(jf, next);
                }
                if let Some(blk) = else_block {
                    self.block(blk);
                }
                let end = self.here();
                for j in ends {
                    self.patch(j, end);
                }
            }
            StmtKind::Do(d) => {
                // Bounds evaluate inline (walker: `iteration_values`) so
                // their charges land before the Do op reads vt0.
                let mark = self.free;
                let lo = self.expr(&d.lo);
                let hi = self.expr(&d.hi);
                let step = d.step.as_ref().map(|e| self.expr(e));
                let body = {
                    let outer = std::mem::take(&mut self.code);
                    self.block(&d.body);
                    std::mem::replace(&mut self.code, outer)
                };
                // Fast form is compiled after the whole unit lowers, once
                // the register high-water mark (promoted-register base) is
                // known.
                self.dos.push(CompiledLoop { sid, d, lo, hi, step, body, fast: None });
                let idx = (self.dos.len() - 1) as u32;
                self.emit(Op::Do(idx), 0.0);
                self.free = mark;
            }
            StmtKind::Call { name, args } => {
                let plan = self.call_plan(name, args);
                self.emit(Op::Call { plan, dst: 0, want: false }, 0.0);
            }
            StmtKind::Print { items } => {
                let mut parts = Vec::with_capacity(items.len());
                for e in items {
                    match e {
                        Expr::Str(s) => parts.push(PrintPart::Str(s.as_str())),
                        _ => parts.push(PrintPart::Reg(self.expr(e))),
                    }
                }
                self.prints.push(PrintPlan { parts });
                let idx = (self.prints.len() - 1) as u32;
                self.emit(Op::Print(idx), 0.0);
            }
            StmtKind::Return => {
                self.emit(Op::Return, 0.0);
            }
            StmtKind::Stop => {
                self.emit(Op::Stop, 0.0);
            }
            StmtKind::Continue | StmtKind::Removed => {
                self.emit(Op::Nop, 0.0);
            }
        }
    }

    fn assign(&mut self, lhs: &'p LValue, rhs: &'p Expr) {
        match lhs {
            LValue::Var(s) => {
                // The gate must run before the rhs is evaluated: the
                // recognizer evaluates only the accumulation operands.
                self.reds.push(RedPlan { sym: *s, rhs });
                let plan = (self.reds.len() - 1) as u32;
                let gate = self.emit(Op::RedGate { plan, skip: 0 }, 0.0);
                let rv = self.expr(rhs);
                self.emit(Op::StoreVar { sym: *s, src: rv }, 0.0);
                let end = self.here();
                self.patch(gate, end);
            }
            LValue::ArrayElem(s, subs) => {
                // Walker order: rhs first, then subscripts, then store.
                let rv = self.expr(rhs);
                if let Some((plan, cost)) = self.affine(subs) {
                    self.emit(Op::StoreElemA { sym: *s, plan, src: rv }, cost);
                } else {
                    let base = self.free;
                    for e in subs {
                        self.expr(e);
                    }
                    self.emit(
                        Op::StoreElem { sym: *s, base, n: subs.len() as u16, src: rv },
                        0.0,
                    );
                }
            }
        }
    }

    /// Compile `e`; the result lands in the returned register, which is
    /// always the lowest free register at entry (operand temps are
    /// released before the producing instruction is emitted, and every
    /// handler reads its inputs before writing its destination).
    fn expr(&mut self, e: &'p Expr) -> u16 {
        match e {
            Expr::Int(v) => self.constant(Value::Int(*v)),
            Expr::Real(v) | Expr::Double(v) => self.constant(Value::Real(*v)),
            Expr::Logical(b) => self.constant(Value::Logical(*b)),
            Expr::Str(_) => {
                let m = self.msg("character value outside PRINT".to_string());
                self.emit(Op::Fail(m), 1.0);
                self.alloc()
            }
            Expr::Var(s) => {
                if let Some(c) = self.unit.symbols.sym(*s).param {
                    return self.constant(const_value(c));
                }
                let dst = self.alloc();
                self.emit(Op::LoadVar { dst, sym: *s }, 1.0);
                dst
            }
            Expr::ArrayRef { sym, subs } => {
                if let Some((plan, cost)) = self.affine(subs) {
                    let dst = self.alloc();
                    self.emit(Op::LoadElemA { dst, sym: *sym, plan }, cost + 1.0);
                    return dst;
                }
                let base = self.free;
                for x in subs {
                    self.expr(x);
                }
                self.free = base;
                let dst = self.alloc();
                self.emit(Op::LoadElem { dst, sym: *sym, base, n: subs.len() as u16 }, 1.0);
                dst
            }
            Expr::Un { op: UnOp::Neg, e } => {
                let r = self.expr(e);
                self.emit(Op::Neg { dst: r, src: r }, 1.0);
                r
            }
            Expr::Un { op: UnOp::Not, e } => {
                let r = self.expr(e);
                self.emit(Op::Not { dst: r, src: r }, 1.0);
                r
            }
            Expr::Bin { op: op @ (BinOp::And | BinOp::Or), l, r } => {
                // Short-circuit, exactly like the walker: the right
                // operand's charges are skipped with its evaluation. The
                // And/Or node's own charge rides the left operand's first
                // instruction (unconditional either way).
                let first = self.code.len();
                let rl = self.expr(l);
                self.code[first].cost += 1.0;
                let j = match op {
                    BinOp::And => self.emit(Op::JumpIfFalse { cond: rl, target: 0 }, 0.0),
                    _ => self.emit(Op::JumpIfTrue { cond: rl, target: 0 }, 0.0),
                };
                let rr = self.expr(r);
                self.free = rl + 1;
                self.emit(Op::Bin { op: *op, dst: rl, l: rl, r: rr }, 0.0);
                let jend = self.emit(Op::Jump(0), 0.0);
                let short = self.here();
                self.patch(j, short);
                let v = Value::Logical(matches!(op, BinOp::Or));
                self.emit(Op::Const { dst: rl, v }, 0.0);
                let end = self.here();
                self.patch(jend, end);
                rl
            }
            Expr::Bin { op, l, r } => {
                let rl = self.expr(l);
                let rr = self.expr(r);
                self.free = rl + 1;
                self.emit(Op::Bin { op: *op, dst: rl, l: rl, r: rr }, 1.0);
                rl
            }
            Expr::Intrinsic { op, args } => {
                let base = self.free;
                for a in args {
                    self.expr(a);
                }
                self.free = base;
                let dst = self.alloc();
                // One charge for the node, six for the intrinsic itself
                // (the walker adds 6.0 after evaluating the arguments).
                self.emit(Op::Intr { op: *op, dst, base, n: args.len() as u16 }, 7.0);
                dst
            }
            Expr::Call { name, args } => {
                let plan = self.call_plan(name, args);
                let dst = self.alloc();
                self.emit(Op::Call { plan, dst, want: true }, 1.0);
                dst
            }
        }
    }

    fn constant(&mut self, v: Value) -> u16 {
        let dst = self.alloc();
        self.emit(Op::Const { dst, v }, 1.0);
        dst
    }

    /// Recognize an all-affine subscript list (each dimension a constant,
    /// an INTEGER variable, or `var ± const` in either order) and build
    /// its plan. Returns the plan index and the folded vtime cost of the
    /// subscript expressions (one per AST node, same as the walker).
    /// Disabled under shadow logging, which needs per-access records.
    fn affine(&mut self, subs: &'p [Expr]) -> Option<(u32, f64)> {
        if self.shadow {
            return None;
        }
        let mut dims = Vec::with_capacity(subs.len());
        let mut cost = 0.0;
        for e in subs {
            let (dim, c) = self.affine_dim(e)?;
            dims.push(dim);
            cost += c;
        }
        self.affs.push(AffinePlan { dims });
        Some(((self.affs.len() - 1) as u32, cost))
    }

    /// A leaf usable in an affine dimension: an integer literal, an
    /// integer PARAMETER, or a plain INTEGER variable.
    fn affine_leaf(&self, e: &Expr) -> Option<(Option<SymId>, i64)> {
        match e {
            Expr::Int(v) => Some((None, *v)),
            Expr::Var(s) => {
                let sym = self.unit.symbols.sym(*s);
                match sym.param {
                    Some(Const::Int(v)) => Some((None, v)),
                    Some(_) => None,
                    None if sym.ty == Ty::Integer => Some((Some(*s), 0)),
                    None => None,
                }
            }
            _ => None,
        }
    }

    fn affine_dim(&self, e: &Expr) -> Option<((Option<SymId>, i64), f64)> {
        if let Some(leaf) = self.affine_leaf(e) {
            return Some((leaf, 1.0));
        }
        if let Expr::Bin { op: op @ (BinOp::Add | BinOp::Sub), l, r } = e {
            let (ls, lc) = self.affine_leaf(l)?;
            let (rs, rc) = self.affine_leaf(r)?;
            // At most one variable, and subtraction only of a constant
            // (`c - i` has no addend form).
            let (sym, add) = match (*op, ls, rs) {
                (BinOp::Add, s, None) => (s, lc.wrapping_add(rc)),
                (BinOp::Add, None, s) => (s, lc.wrapping_add(rc)),
                (BinOp::Sub, s, None) => (s, lc.wrapping_sub(rc)),
                _ => return None,
            };
            return Some(((sym, add), 3.0));
        }
        None
    }

    /// Build a call plan; argument fragments share this unit's register
    /// allocator (they run while caller registers may be live).
    fn call_plan(&mut self, name: &'p str, args: &'p [Expr]) -> u32 {
        let callee_idx = self.unit_index(name);
        let plan = match callee_idx {
            None => CallPlan {
                name,
                err: Some(format!("call to unknown procedure {name}")),
                callee: 0,
                args: Vec::new(),
            },
            Some(ci) => {
                let callee = &self.prog.units[ci];
                if callee.args.len() != args.len() {
                    CallPlan {
                        name,
                        err: Some(format!(
                            "{name} expects {} arguments, got {}",
                            callee.args.len(),
                            args.len()
                        )),
                        callee: ci,
                        args: Vec::new(),
                    }
                } else {
                    let mut plans = Vec::with_capacity(args.len());
                    for (&formal, actual) in callee.args.iter().zip(args) {
                        let fty = callee.symbols.sym(formal).ty;
                        plans.push(self.arg_plan(actual, fty));
                    }
                    CallPlan { name, err: None, callee: ci, args: plans }
                }
            }
        };
        self.calls.push(plan);
        (self.calls.len() - 1) as u32
    }

    fn arg_plan(&mut self, actual: &'p Expr, fty: Ty) -> ArgPlan {
        match actual {
            Expr::Var(s) if self.unit.symbols.sym(*s).param.is_none() => ArgPlan::ByRef(*s),
            Expr::Var(s) => ArgPlan::ConstVal {
                v: const_value(
                    self.unit.symbols.sym(*s).param.expect("checked above"),
                ),
                ty: fty,
            },
            Expr::ArrayRef { sym, subs } => {
                let mark = self.free;
                let outer = std::mem::take(&mut self.code);
                let base = self.free;
                for e in subs {
                    self.expr(e);
                }
                let code = std::mem::replace(&mut self.code, outer);
                self.free = mark;
                ArgPlan::Elem { sym: *sym, code, base, n: subs.len() as u16, ty: fty }
            }
            other => {
                let mark = self.free;
                let outer = std::mem::take(&mut self.code);
                let reg = self.expr(other);
                let code = std::mem::replace(&mut self.code, outer);
                self.free = mark;
                ArgPlan::Val { code, reg, ty: fty }
            }
        }
    }

    fn unit_index(&self, name: &str) -> Option<usize> {
        self.prog.unit_index(name)
    }
}

impl<'p> Interp<'p> {
    /// Execute a whole unit's compiled body with a fresh register file.
    pub(crate) fn bexec_unit(
        &self,
        unit_idx: usize,
        frame: &Frame,
        state: &mut ExecState<'_>,
    ) -> Result<Flow, RtError> {
        let cu = &self.compiled.as_ref().expect("bytecode engine not compiled").units[unit_idx];
        let mut regs = vec![Value::Int(0); cu.nregs()];
        self.bexec_block(unit_idx, &cu.code, frame, state, &mut regs)
    }

    /// The bytecode interpreter loop. `code` must belong to `unit_idx`'s
    /// compiled unit; `regs` must be at least that unit's `nregs`.
    pub(crate) fn bexec_block(
        &self,
        unit_idx: usize,
        code: &Code,
        frame: &Frame,
        state: &mut ExecState<'_>,
        regs: &mut Vec<Value>,
    ) -> Result<Flow, RtError> {
        let cu = &self.compiled.as_ref().expect("bytecode engine not compiled").units[unit_idx];
        let unit = &self.program.units[unit_idx];
        let mut pc = 0usize;
        while pc < code.len() {
            let inst = &code[pc];
            if inst.tick {
                state.tick(inst.cost)?;
            } else if inst.cost != 0.0 {
                state.vtime += inst.cost;
            }
            match &inst.op {
                Op::Nop => {}
                Op::Const { dst, v } => regs[*dst as usize] = *v,
                Op::LoadVar { dst, sym } => {
                    let cell = self.cell(unit, frame, *sym)?;
                    state.record(cell, 0, false, unit_idx, *sym);
                    regs[*dst as usize] = cell.load_scalar();
                }
                Op::StoreVar { sym, src } => {
                    let v = regs[*src as usize];
                    let cell = self.cell(unit, frame, *sym)?;
                    state.record(cell, 0, true, unit_idx, *sym);
                    cell.store_scalar(v);
                }
                Op::LoadElem { dst, sym, base, n } => {
                    let flat = self.elem_regs(unit, frame, regs, *sym, *base, *n)?;
                    let cell = self.cell(unit, frame, *sym)?;
                    state.record(cell, flat, false, unit_idx, *sym);
                    regs[*dst as usize] = cell.as_array().load_flat(flat);
                }
                Op::StoreElem { sym, base, n, src } => {
                    let flat = self.elem_regs(unit, frame, regs, *sym, *base, *n)?;
                    let v = regs[*src as usize];
                    let cell = self.cell(unit, frame, *sym)?;
                    state.record(cell, flat, true, unit_idx, *sym);
                    cell.as_array().store_flat(flat, v);
                }
                Op::LoadElemA { dst, sym, plan } => {
                    let flat = self.elem_affine(unit, frame, &cu.affs[*plan as usize], *sym)?;
                    let cell = self.cell(unit, frame, *sym)?;
                    regs[*dst as usize] = cell.as_array().load_flat(flat);
                }
                Op::StoreElemA { sym, plan, src } => {
                    let flat = self.elem_affine(unit, frame, &cu.affs[*plan as usize], *sym)?;
                    self.cell(unit, frame, *sym)?.as_array().store_flat(flat, regs[*src as usize]);
                }
                Op::Neg { dst, src } => regs[*dst as usize] = eval_neg(regs[*src as usize])?,
                Op::Not { dst, src } => {
                    regs[*dst as usize] = Value::Logical(!regs[*src as usize].as_logical())
                }
                Op::Bin { op, dst, l, r } => {
                    regs[*dst as usize] = eval_bin(*op, regs[*l as usize], regs[*r as usize])?
                }
                Op::Intr { op, dst, base, n } => {
                    let v = eval_intrinsic(
                        *op,
                        &regs[*base as usize..*base as usize + *n as usize],
                    )?;
                    regs[*dst as usize] = v;
                }
                Op::Jump(t) => {
                    pc = *t as usize;
                    continue;
                }
                Op::JumpIfFalse { cond, target } => {
                    if !regs[*cond as usize].as_logical() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::JumpIfTrue { cond, target } => {
                    if regs[*cond as usize].as_logical() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::Do(i) => {
                    match self.bexec_do(unit_idx, cu, *i, frame, state, regs)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Op::Call { plan, dst, want } => {
                    let v = self.bexec_call(unit_idx, cu, *plan, frame, state, regs)?;
                    if *want {
                        let name = cu.calls[*plan as usize].name;
                        regs[*dst as usize] = v.ok_or_else(|| {
                            RtError::new(format!("{name} is a subroutine, not a function"))
                        })?;
                    }
                }
                Op::Print(i) => {
                    let plan = &cu.prints[*i as usize];
                    let mut parts = Vec::with_capacity(plan.parts.len());
                    for p in &plan.parts {
                        match p {
                            PrintPart::Str(s) => parts.push((*s).to_string()),
                            PrintPart::Reg(r) => parts.push(regs[*r as usize].display()),
                        }
                    }
                    state.printed.push(parts.join(" "));
                }
                Op::RedGate { plan, skip } => {
                    if !state.red_watch.is_empty() {
                        let rp = &cu.reds[*plan as usize];
                        let cell = self.cell(unit, frame, rp.sym)?.clone();
                        if let Some(wi) = state.watched(&cell) {
                            self.red_assign(unit_idx, wi, rp.sym, rp.rhs, &cell, frame, state)?;
                            pc = *skip as usize;
                            continue;
                        }
                    }
                }
                Op::Return => return Ok(Flow::Return),
                Op::Stop => return Ok(Flow::Stop),
                Op::Fail(m) => return Err(RtError::new(cu.msgs[*m as usize].clone())),
            }
            pc += 1;
        }
        Ok(Flow::Normal)
    }

    /// Linearize a generic subscript whose values sit in registers.
    fn elem_regs(
        &self,
        unit: &ProgramUnit,
        frame: &Frame,
        regs: &[Value],
        sym: SymId,
        base: u16,
        n: u16,
    ) -> Result<usize, RtError> {
        let mut idx = [0i64; 8];
        for k in 0..n as usize {
            idx[k] = regs[base as usize + k].as_int();
        }
        let idx = &idx[..n as usize];
        let cell = self.cell(unit, frame, sym)?;
        cell.as_array().linearize(idx).ok_or_else(|| {
            RtError::new(format!(
                "subscript out of bounds: {}({:?}) in {}",
                unit.symbols.name(sym),
                idx.to_vec(),
                unit.name
            ))
        })
    }

    /// Linearize an affine subscript straight from its index variables.
    fn elem_affine(
        &self,
        unit: &ProgramUnit,
        frame: &Frame,
        plan: &AffinePlan,
        sym: SymId,
    ) -> Result<usize, RtError> {
        let mut idx = [0i64; 8];
        for (k, (isym, add)) in plan.dims.iter().enumerate() {
            let v = match isym {
                Some(s) => self.cell(unit, frame, *s)?.load_scalar().as_int().wrapping_add(*add),
                None => *add,
            };
            idx[k] = v;
        }
        let idx = &idx[..plan.dims.len()];
        let cell = self.cell(unit, frame, sym)?;
        cell.as_array().linearize(idx).ok_or_else(|| {
            RtError::new(format!(
                "subscript out of bounds: {}({:?}) in {}",
                unit.symbols.name(sym),
                idx.to_vec(),
                unit.name
            ))
        })
    }

    /// Resolve a fast body's cells against a frame. `None` (unbound
    /// symbol, scalar bound where an array is accessed or vice versa, or
    /// any aliasing among the promoted scalars and the loop variable —
    /// promotion needs every scalar to be its own storage) sends the whole
    /// loop down the slow path, which reports those conditions exactly as
    /// the walker does.
    pub(crate) fn fast_resolve<'f>(
        &self,
        fb: &FastBody,
        frame: &'f Frame,
        var_cell: &Cell,
    ) -> Option<FastCtx<'f>> {
        let mut cells: Vec<&'f Cell> = Vec::with_capacity(fb.scalars.len());
        let mut tys = Vec::with_capacity(fb.scalars.len());
        for &s in &fb.scalars {
            let cell = &**frame.get(s)?;
            let ty = match cell {
                Cell::Scalar { ty, .. } => *ty,
                Cell::Array(_) => return None,
            };
            if std::ptr::eq(cell, var_cell)
                || cells.iter().any(|&c| std::ptr::eq(c, cell))
            {
                return None;
            }
            cells.push(cell);
            tys.push(ty);
        }
        let mut accs = Vec::with_capacity(fb.accs.len());
        for fa in &fb.accs {
            let cell = frame.get(fa.sym)?;
            if !cell.is_array() {
                return None;
            }
            let arr = cell.as_array();
            let one = match (fa.dims.len(), arr.dims.len()) {
                (1, 1) => Some(arr.dims[0]),
                _ => None,
            };
            accs.push(ResAcc { arr, one });
        }
        let typed_ok = match &fb.typed {
            Some(tb) => {
                tb.real_slots
                    .iter()
                    .all(|&s| matches!(tys[s as usize], Ty::Real | Ty::Double))
                    && tb.int_slots.iter().all(|&s| tys[s as usize] == Ty::Integer)
                    && accs.iter().all(|ra| matches!(ra.arr.ty, Ty::Real | Ty::Double))
            }
            None => false,
        };
        Some(FastCtx { typed_ok, cells, tys, accs })
    }

    /// One fast iteration: bulk charge, then the straight-line ops. On a
    /// fault the unreached original instructions' charges are rolled back
    /// so `steps`/`vtime` match the slow path's stopping point exactly.
    /// The caller must have checked `state.granted >= fb.steps` and run
    /// `fb.prologue` since the last slow iteration; on `Err` the caller
    /// flushes the promoted scalars before touching any cell.
    ///
    /// `red_bufs` receives reduction operands from `RedLog` ops, one
    /// buffer per `reduction(...)` clause entry — `Some` only in worker
    /// chunks (serial runs pass `None`; the logs would be discarded). A
    /// faulting iteration may leave its partial operands in the buffers:
    /// an erroring parallel loop returns before the merge ever replays
    /// them.
    #[allow(clippy::too_many_arguments)]
    fn fast_iter(
        &self,
        unit: &ProgramUnit,
        fb: &FastBody,
        ctx: &FastCtx<'_>,
        state: &mut ExecState<'_>,
        regs: &mut [Value],
        cur: i64,
        mut red_bufs: Option<&mut [Vec<Value>]>,
    ) -> Result<(), RtError> {
        debug_assert!(state.granted >= fb.steps);
        state.granted -= fb.steps;
        state.steps += fb.steps;
        state.vtime += fb.cost;
        #[inline(always)]
        fn fetch(o: Opnd, regs: &[Value], cur: i64) -> Value {
            match o {
                Opnd::Reg(r) => regs[r as usize],
                Opnd::Imm(v) => v,
                Opnd::Iter => Value::Int(cur),
            }
        }
        let mut fail: Option<(usize, RtError)> = None;
        for (j, op) in fb.ops.iter().enumerate() {
            match op {
                FastOp::Const { dst, v } => regs[*dst as usize] = *v,
                FastOp::LoadIter { dst } => regs[*dst as usize] = Value::Int(cur),
                FastOp::Copy { dst, src } => regs[*dst as usize] = regs[*src as usize],
                FastOp::StoreP { p, slot, src } => {
                    regs[*p as usize] =
                        fetch(*src, regs, cur).coerce(ctx.tys[*slot as usize]);
                }
                FastOp::LoadA { dst, a } => {
                    let i = *a as usize;
                    match fast_flat(unit, &fb.accs[i], &ctx.accs[i], regs, cur) {
                        Ok(flat) => regs[*dst as usize] = ctx.accs[i].arr.load_flat(flat),
                        Err(e) => {
                            fail = Some((j, e));
                            break;
                        }
                    }
                }
                FastOp::StoreA { a, src } => {
                    let i = *a as usize;
                    match fast_flat(unit, &fb.accs[i], &ctx.accs[i], regs, cur) {
                        Ok(flat) => ctx.accs[i].arr.store_flat(flat, fetch(*src, regs, cur)),
                        Err(e) => {
                            fail = Some((j, e));
                            break;
                        }
                    }
                }
                FastOp::LoadN { dst, a, base, n } => {
                    let mut idx = [0i64; 8];
                    for k in 0..*n as usize {
                        idx[k] = regs[*base as usize + k].as_int();
                    }
                    let idx = &idx[..*n as usize];
                    let ra = &ctx.accs[*a as usize];
                    match ra.arr.linearize(idx) {
                        Some(flat) => regs[*dst as usize] = ra.arr.load_flat(flat),
                        None => {
                            fail = Some((j, bounds_err(unit, fb.accs[*a as usize].sym, idx)));
                            break;
                        }
                    }
                }
                FastOp::StoreN { a, base, n, src } => {
                    let mut idx = [0i64; 8];
                    for k in 0..*n as usize {
                        idx[k] = regs[*base as usize + k].as_int();
                    }
                    let idx = &idx[..*n as usize];
                    let ra = &ctx.accs[*a as usize];
                    match ra.arr.linearize(idx) {
                        Some(flat) => ra.arr.store_flat(flat, fetch(*src, regs, cur)),
                        None => {
                            fail = Some((j, bounds_err(unit, fb.accs[*a as usize].sym, idx)));
                            break;
                        }
                    }
                }
                FastOp::Neg { dst, src } => match eval_neg(fetch(*src, regs, cur)) {
                    Ok(v) => regs[*dst as usize] = v,
                    Err(e) => {
                        fail = Some((j, e));
                        break;
                    }
                },
                FastOp::Not { dst, src } => {
                    regs[*dst as usize] = Value::Logical(!fetch(*src, regs, cur).as_logical())
                }
                FastOp::Bin { op, dst, l, r } => {
                    // Add/Sub/Mul are infallible: evaluate them here (the
                    // same `num2` promotion `eval_bin` uses) instead of
                    // paying its full dispatch on the three hottest ops.
                    let a = fetch(*l, regs, cur);
                    let b = fetch(*r, regs, cur);
                    regs[*dst as usize] = match op {
                        BinOp::Add => num2(a, b, |x, y| x.wrapping_add(y), |x, y| x + y),
                        BinOp::Sub => num2(a, b, |x, y| x.wrapping_sub(y), |x, y| x - y),
                        BinOp::Mul => num2(a, b, |x, y| x.wrapping_mul(y), |x, y| x * y),
                        _ => match eval_bin(*op, a, b) {
                            Ok(v) => v,
                            Err(e) => {
                                fail = Some((j, e));
                                break;
                            }
                        },
                    };
                }
                FastOp::Intr { op, dst, base, n } => {
                    match eval_intrinsic(*op, &regs[*base as usize..*base as usize + *n as usize])
                    {
                        Ok(v) => regs[*dst as usize] = v,
                        Err(e) => {
                            fail = Some((j, e));
                            break;
                        }
                    }
                }
                FastOp::RedLog { red, src } => {
                    if let Some(bufs) = red_bufs.as_mut() {
                        bufs[*red as usize].push(fetch(*src, regs, cur));
                    }
                }
            }
        }
        if let Some((j, e)) = fail {
            // Un-charge every original instruction past the faulting op
            // (`origs` maps kept ops back; dropped producers before the
            // fault stay charged, exactly as the slow path would have
            // executed them). Integer-valued charges subtract exactly, so
            // the abort state is bit-identical to the slow path's.
            for k in fb.origs[j] as usize + 1..fb.charge.len() {
                let (c, t) = fb.charge[k];
                state.vtime -= c;
                if t {
                    state.steps -= 1;
                    state.granted += 1;
                }
            }
            return Err(e);
        }
        Ok(())
    }

    /// Run typed (all-f64) fast iterations in a burst: every iteration
    /// the remaining budget grant covers, one op-loop pass each, with no
    /// per-iteration driver dispatch. Charging is per iteration (the same
    /// bulk fold as [`Self::fast_iter`]); the burst stops early — `done`
    /// short of the value count — when the grant can no longer cover a
    /// whole iteration, and the caller routes that iteration through the
    /// slow path, whose tick refill/abort is the walker's. On a fault the
    /// faulting op's unreached charges roll back and the faulting
    /// iteration's value is returned for the loop-variable store.
    #[allow(clippy::too_many_arguments)]
    fn typed_run(
        &self,
        unit: &ProgramUnit,
        fb: &FastBody,
        tb: &TypedBody,
        ctx: &FastCtx<'_>,
        state: &mut ExecState<'_>,
        fregs: &mut [f64],
        iregs: &[i64],
        vals: impl Iterator<Item = i64>,
        done: &mut u64,
        mut red_bufs: Option<&mut [Vec<Value>]>,
    ) -> Result<(), (i64, RtError)> {
        #[inline(always)]
        fn ff(o: FOpnd, f: &[f64], cur: i64) -> f64 {
            match o {
                FOpnd::F(r) => f[r as usize],
                FOpnd::Imm(v) => v,
                FOpnd::Iter => cur as f64,
            }
        }
        #[inline(always)]
        fn tflat(
            unit: &ProgramUnit,
            fa: &FastAcc,
            ra: &ResAcc<'_>,
            base: u16,
            iregs: &[i64],
            cur: i64,
        ) -> Result<usize, RtError> {
            let ti = |src: IdxSrc, add: i64| match src {
                IdxSrc::Iter => cur.wrapping_add(add),
                IdxSrc::Reg(r) => iregs[(r - base) as usize].wrapping_add(add),
                IdxSrc::Konst => add,
            };
            if let Some((lo, hi)) = ra.one {
                let (src, add) = fa.dims[0];
                let w = ti(src, add);
                if w < lo || w > hi {
                    return Err(bounds_err(unit, fa.sym, &[w]));
                }
                return Ok((w - lo) as usize);
            }
            let mut idx = [0i64; 8];
            for (k, &(src, add)) in fa.dims.iter().enumerate() {
                idx[k] = ti(src, add);
            }
            let idx = &idx[..fa.dims.len()];
            ra.arr.linearize(idx).ok_or_else(|| bounds_err(unit, fa.sym, idx))
        }
        for cur in vals {
            if state.granted < fb.steps {
                return Ok(());
            }
            state.granted -= fb.steps;
            state.steps += fb.steps;
            state.vtime += fb.cost;
            let mut fail: Option<(usize, RtError)> = None;
            for (j, op) in tb.ops.iter().enumerate() {
                match op {
                    TOp::LoadA { dst, a } => {
                        let i = *a as usize;
                        match tflat(unit, &fb.accs[i], &ctx.accs[i], fb.base, iregs, cur) {
                            Ok(flat) => fregs[*dst as usize] = ctx.accs[i].arr.load_f64(flat),
                            Err(e) => {
                                fail = Some((j, e));
                                break;
                            }
                        }
                    }
                    TOp::StoreA { a, src } => {
                        let i = *a as usize;
                        match tflat(unit, &fb.accs[i], &ctx.accs[i], fb.base, iregs, cur) {
                            Ok(flat) => ctx.accs[i].arr.store_f64(flat, ff(*src, fregs, cur)),
                            Err(e) => {
                                fail = Some((j, e));
                                break;
                            }
                        }
                    }
                    TOp::StoreP { p, src } => fregs[*p as usize] = ff(*src, fregs, cur),
                    TOp::Add { dst, l, r } => {
                        fregs[*dst as usize] = ff(*l, fregs, cur) + ff(*r, fregs, cur)
                    }
                    TOp::Sub { dst, l, r } => {
                        fregs[*dst as usize] = ff(*l, fregs, cur) - ff(*r, fregs, cur)
                    }
                    TOp::Mul { dst, l, r } => {
                        fregs[*dst as usize] = ff(*l, fregs, cur) * ff(*r, fregs, cur)
                    }
                    TOp::Div { dst, l, r } => {
                        fregs[*dst as usize] = ff(*l, fregs, cur) / ff(*r, fregs, cur)
                    }
                    TOp::Pow { dst, l, r } => {
                        fregs[*dst as usize] = ff(*l, fregs, cur).powf(ff(*r, fregs, cur))
                    }
                    TOp::Neg { dst, src } => fregs[*dst as usize] = -ff(*src, fregs, cur),
                    TOp::RedLog { red, src } => {
                        if let Some(bufs) = red_bufs.as_mut() {
                            bufs[*red as usize].push(Value::Real(ff(*src, fregs, cur)));
                        }
                    }
                }
            }
            if let Some((j, e)) = fail {
                for k in tb.origs[j] as usize + 1..fb.charge.len() {
                    let (c, t) = fb.charge[k];
                    state.vtime -= c;
                    if t {
                        state.steps -= 1;
                        state.granted += 1;
                    }
                }
                return Err((cur, e));
            }
            *done += 1;
        }
        Ok(())
    }

    /// Execute a compiled DO loop: analytic trip count (no value vector),
    /// walker-identical charging, and the chunk path for a `PARALLEL DO`
    /// that forks.
    fn bexec_do(
        &self,
        unit_idx: usize,
        cu: &CompiledUnit<'p>,
        i: u32,
        frame: &Frame,
        state: &mut ExecState<'_>,
        regs: &mut Vec<Value>,
    ) -> Result<Flow, RtError> {
        let cl = &cu.dos[i as usize];
        let d = cl.d;
        let step = cl.step.map_or(1, |r| regs[r as usize].as_int());
        let space =
            IterSpace::new(regs[cl.lo as usize].as_int(), regs[cl.hi as usize].as_int(), step)?;
        self.scoped_do(unit_idx, cl.sid, d, frame, state, |state| {
            let flow = if self.forks(d, state) {
                self.run_parallel(unit_idx, d, space, frame, state, Some(i))?
            } else {
                let var_cell = self.cell(&self.program.units[unit_idx], frame, d.var)?;
                let body = LoopBody::Code(&cl.body, cl.fast.as_ref());
                self.drive(unit_idx, body, frame, state, regs, (d.var, var_cell), space, None)?
            };
            Ok((flow, space.count))
        })
    }

    /// The one iteration driver: the bytecode engine's serial DO and every
    /// worker chunk (of either engine) run their iterations here.
    ///
    /// A straight-line body runs in fast form when nothing watches it:
    /// cells resolve once, iterations charge in bulk (a typed burst covers
    /// every iteration the budget grant does), and loop-variable reads use
    /// the in-flight value, the cell getting the last value at the end —
    /// mid-loop stores are unobservable without a shadow tap. Iterations
    /// the grant can't cover outright take the slow path, whose per-tick
    /// refill/abort is the walker's. A reduction watch normally rules the
    /// fast form out: in a serial loop it belongs to an enclosing chunk's
    /// loop, whose accumulators this body's `red_ok` says nothing about.
    /// Only a chunk's own reductions (`tap` is `Some`) qualify, when every
    /// accumulator store was recognized at compile time: spliced `RedLog`
    /// ops then log the same operand stream `red_assign` would have.
    ///
    /// Every exit leaves the cells as the slow path would have: promoted
    /// scalars are flushed and, on a fault, the loop variable holds the
    /// faulting iteration's value.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn drive(
        &self,
        unit_idx: usize,
        body: LoopBody<'_>,
        frame: &Frame,
        state: &mut ExecState<'_>,
        regs: &mut Vec<Value>,
        (var, var_cell): (SymId, &Arc<Cell>),
        space: IterSpace,
        mut tap: Option<&mut ChunkTap>,
    ) -> Result<Flow, RtError> {
        let unit = &self.program.units[unit_idx];
        let fast = match body {
            LoopBody::Code(_, Some(fb))
                if state.shadow.is_none()
                    && (state.red_watch.is_empty() || (tap.is_some() && fb.red_ok)) =>
            {
                self.fast_resolve(fb, frame, var_cell).map(|ctx| (fb, ctx))
            }
            _ => None,
        };
        if let Some((fb, _)) = &fast {
            if regs.len() < fb.nregs {
                regs.resize(fb.nregs, Value::Int(0));
            }
        }
        let typed = match &fast {
            Some((fb, ctx)) if ctx.typed_ok => fb.typed.as_ref(),
            _ => None,
        };
        let (mut fregs, mut iregs) = match (&fast, typed) {
            (Some((fb, _)), Some(_)) => (vec![0f64; fb.nregs], vec![0i64; fb.nslots()]),
            _ => (Vec::new(), Vec::new()),
        };
        // While `promoted`, the body's scalars live in registers; the
        // cells are reconciled (`flush`) at every exit from fast mode so
        // anything that can observe them — a slow iteration, a fault
        // path, the code after the loop — sees exactly what the slow path
        // would have left there.
        let mut promoted = false;
        let flush = |fregs: &[f64], regs: &[Value]| {
            if let Some((fb, ctx)) = &fast {
                match typed {
                    Some(tb) => tb.flush(fb, ctx, fregs),
                    None => fb.flush(ctx, regs),
                }
            }
        };
        let mut last = None;
        let mut flow = Flow::Normal;
        let mut k = 0u64;
        while k < space.count {
            let cur = space.at(k);
            match &fast {
                Some((fb, ctx)) if state.granted >= fb.steps => {
                    let bufs = tap.as_deref_mut().map(|t| &mut t.red_bufs[..]);
                    if let Some(tb) = typed {
                        if !promoted {
                            tb.prologue(fb, ctx, &mut fregs, &mut iregs);
                            promoted = true;
                        }
                        let vals = space.values_from(k);
                        let mut done = 0u64;
                        let r = self.typed_run(
                            unit, fb, tb, ctx, state, &mut fregs, &iregs, vals, &mut done, bufs,
                        );
                        k += done;
                        if done > 0 {
                            last = Some(space.at(k - 1));
                        }
                        if let Err((cf, e)) = r {
                            flush(&fregs, regs);
                            var_cell.store_scalar(Value::Int(cf));
                            return Err(e);
                        }
                        continue;
                    }
                    if !promoted {
                        fb.prologue(ctx, regs);
                        promoted = true;
                    }
                    last = Some(cur);
                    if let Err(e) = self.fast_iter(unit, fb, ctx, state, regs, cur, bufs) {
                        flush(&fregs, regs);
                        var_cell.store_scalar(Value::Int(cur));
                        return Err(e);
                    }
                }
                _ => {
                    if promoted {
                        flush(&fregs, regs);
                        promoted = false;
                    }
                    last = Some(cur);
                    match tap.as_deref_mut() {
                        Some(t) => t.begin_iter(state, k),
                        None => {
                            if let Some(sh) = state.shadow.as_deref_mut() {
                                sh.set_iter(k);
                            }
                        }
                    }
                    state.tick(2.0)?;
                    state.record(var_cell, 0, true, unit_idx, var);
                    var_cell.store_scalar(Value::Int(cur));
                    let f = match body {
                        LoopBody::Code(code, _) => {
                            self.bexec_block(unit_idx, code, frame, state, regs)?
                        }
                        LoopBody::Tree(stmts) => self.exec_block(unit_idx, stmts, frame, state)?,
                    };
                    if !matches!(f, Flow::Normal) {
                        flow = f;
                        break;
                    }
                    if let Some(t) = tap.as_deref_mut() {
                        t.end_iter(state);
                    }
                }
            }
            k += 1;
        }
        if promoted {
            flush(&fregs, regs);
        }
        if let (Some(_), Some(v)) = (&fast, last) {
            var_cell.store_scalar(Value::Int(v));
        }
        Ok(flow)
    }

    /// Execute a compiled call site (mirrors the walker's `exec_call`
    /// argument binding, charge order, and error messages; the callee body
    /// runs as bytecode with its own register file).
    fn bexec_call(
        &self,
        unit_idx: usize,
        cu: &CompiledUnit<'p>,
        plan: u32,
        frame: &Frame,
        state: &mut ExecState<'_>,
        regs: &mut Vec<Value>,
    ) -> Result<Option<Value>, RtError> {
        let unit = &self.program.units[unit_idx];
        let cp = &cu.calls[plan as usize];
        if let Some(msg) = &cp.err {
            return Err(RtError::new(msg.clone()));
        }
        let callee_idx = cp.callee;
        let callee = &self.program.units[callee_idx];
        state.tick(8.0)?; // call overhead, same as the walker
        let mut bound: Vec<(SymId, Arc<Cell>)> = Vec::with_capacity(cp.args.len());
        let mut writebacks: Vec<(Arc<Cell>, usize, Arc<Cell>)> = Vec::new();
        for (&formal, ap) in callee.args.iter().zip(&cp.args) {
            match ap {
                ArgPlan::ByRef(s) => {
                    bound.push((formal, self.cell(unit, frame, *s)?.clone()));
                }
                ArgPlan::ConstVal { v, ty } => {
                    let tmp = Cell::scalar(*ty);
                    tmp.store_scalar(*v);
                    bound.push((formal, tmp));
                }
                ArgPlan::Elem { sym, code, base, n, ty } => {
                    self.bexec_frag(unit_idx, code, frame, state, regs)?;
                    let mut idx = [0i64; 8];
                    for k in 0..*n as usize {
                        idx[k] = regs[*base as usize + k].as_int();
                    }
                    let cell = self.cell(unit, frame, *sym)?.clone();
                    let arr = cell.as_array();
                    let flat = arr.linearize(&idx[..*n as usize]).ok_or_else(|| {
                        RtError::new(format!(
                            "argument subscript out of bounds in call to {}",
                            cp.name
                        ))
                    })?;
                    state.record(&cell, flat, true, unit_idx, *sym);
                    let tmp = Cell::scalar(*ty);
                    tmp.store_scalar(arr.load_flat(flat));
                    writebacks.push((cell.clone(), flat, tmp.clone()));
                    bound.push((formal, tmp));
                }
                ArgPlan::Val { code, reg, ty } => {
                    self.bexec_frag(unit_idx, code, frame, state, regs)?;
                    let tmp = Cell::scalar(*ty);
                    tmp.store_scalar(regs[*reg as usize]);
                    bound.push((formal, tmp));
                }
            }
        }
        let callee_frame = self.make_frame(callee_idx, &bound, state)?;
        let ccu = &self.compiled.as_ref().expect("bytecode engine not compiled").units[callee_idx];
        let mut cregs = vec![Value::Int(0); ccu.nregs()];
        if let Flow::Stop =
            self.bexec_block(callee_idx, &ccu.code, &callee_frame, state, &mut cregs)?
        {
            return Err(RtError::new("STOP inside a procedure"));
        }
        for (cell, flat, tmp) in writebacks {
            cell.as_array().store_flat(flat, tmp.load_scalar());
        }
        if let ped_fortran::UnitKind::Function(_) = callee.kind {
            let ret = callee.symbols.lookup(&callee.name).ok_or_else(|| {
                RtError::new(format!("function {} has no result var", cp.name))
            })?;
            let v = callee_frame
                .get(ret)
                .ok_or_else(|| RtError::new("unbound function result"))?
                .load_scalar();
            Ok(Some(v))
        } else {
            Ok(None)
        }
    }

    /// Run an expression fragment (call-argument code): never produces
    /// control flow.
    fn bexec_frag(
        &self,
        unit_idx: usize,
        code: &Code,
        frame: &Frame,
        state: &mut ExecState<'_>,
        regs: &mut Vec<Value>,
    ) -> Result<(), RtError> {
        match self.bexec_block(unit_idx, code, frame, state, regs)? {
            Flow::Normal => Ok(()),
            _ => Err(RtError::new("control flow inside an expression fragment")),
        }
    }
}
