//! Loop-level scalar classification.
//!
//! For each scalar referenced in a loop, Ped's variable pane shows whether
//! it is shared, private, a reduction, or an induction variable, and lets
//! the user reclassify. The underlying facts come from this module:
//!
//! * **privatizable** — "recognizing scalars that are killed, or redefined,
//!   on every iteration of a loop and may be made private, thus eliminating
//!   dependences";
//! * **reductions** — `s = s + e` chains (the paper reports five programs
//!   with unrecognized sum reductions; we recognize them);
//! * **auxiliary induction variables** — `k = k + c` with other uses, which
//!   induction-variable substitution can rewrite;
//! * **read-only** and genuinely **shared** (loop-carried) scalars.

use ped_fortran::visit::{stmt_accesses, AccessKind};
use ped_fortran::{BinOp, Expr, LValue, ProgramUnit, RedOp, StmtId, StmtKind, SymId};
use std::collections::{HashMap, HashSet};

/// Classification of one scalar with respect to one loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarClass {
    /// Only read in the loop.
    ReadOnly,
    /// The loop index itself.
    LoopIndex,
    /// Written before any possible use on every iteration: safe to privatize.
    Private {
        /// The value is needed after the loop, so the last iteration's value
        /// must be copied out (`LASTPRIVATE`).
        needs_lastprivate: bool,
    },
    /// All accesses form a reduction with this operator.
    Reduction(RedOp),
    /// `k = k ± c` with further uses: an auxiliary induction variable with
    /// the given per-iteration step (substitutable).
    AuxInduction {
        /// Loop-invariant step expression (positive for `+`).
        step: Expr,
    },
    /// Carries a genuine loop dependence; must stay shared.
    Shared,
}

/// Result of the definite-assignment / exposed-use walk over a loop body.
#[derive(Debug, Default)]
struct BodyFacts {
    /// Scalars with an upward-exposed use (read possibly before any write
    /// in the same iteration).
    exposed: HashSet<SymId>,
    /// Scalars definitely assigned on every path through the body.
    assigned_on_all_paths: HashSet<SymId>,
    /// Scalars written anywhere in the body (possibly conditionally).
    written: HashSet<SymId>,
    /// Scalars read anywhere in the body.
    read: HashSet<SymId>,
}

/// Interprocedural scalar effects of call statements, used to refine the
/// classification. The conservative default assumes a call may read and
/// write every scalar argument and COMMON scalar and kills nothing;
/// `ped-interproc` provides the precise MOD/REF/KILL-backed implementation.
pub trait CallInfo {
    /// Scalars *definitely assigned* by the call on every path (interproc
    /// KILL). A killed scalar behaves like an unconditional assignment.
    fn kills(&self, unit: &ProgramUnit, stmt: StmtId) -> HashSet<SymId>;
    /// Scalars the call may write.
    fn mods(&self, unit: &ProgramUnit, stmt: StmtId) -> HashSet<SymId>;
    /// Scalars the call may read **before writing them** (upward-exposed
    /// uses — Callahan's flow-sensitive side effects, not flat REF; a
    /// scalar the callee always assigns before reading is *not* here).
    fn refs(&self, unit: &ProgramUnit, stmt: StmtId) -> HashSet<SymId>;
    /// Sectioned effect of the call on one array (bounded regular sections).
    /// The conservative default: any array passed as an argument or living
    /// in COMMON may be read and written anywhere, kills nothing, exposes
    /// everything (`exposed: None` ≡ ⊤). `ped-interproc` overrides this
    /// with callee-summary sections translated into the caller's frame.
    fn array_effect(&self, unit: &ProgramUnit, stmt: StmtId, sym: SymId) -> ArrayCallEffect {
        conservative_array_effect(unit, stmt, sym)
    }
}

/// Sectioned interprocedural effect of one call statement on one array.
#[derive(Debug, Clone, Default)]
pub struct ArrayCallEffect {
    /// The call may read the array.
    pub may_read: bool,
    /// The call may write the array.
    pub may_write: bool,
    /// Section definitely overwritten before any use on every path through
    /// the callee (`None` = kills nothing).
    pub kill: Option<crate::sections::ArraySection>,
    /// Section of upward-exposed reads (`None` = unknown, treat as ⊤).
    pub exposed: Option<crate::sections::ArraySection>,
}

/// Worst-case array effect: argument and COMMON arrays are read and written
/// in full, nothing is killed.
pub fn conservative_array_effect(
    unit: &ProgramUnit,
    stmt: StmtId,
    sym: SymId,
) -> ArrayCallEffect {
    let touched = unit.symbols.sym(sym).common.is_some()
        || stmt_accesses(unit, stmt)
            .iter()
            .any(|a| a.kind == AccessKind::CallArg && a.sym == sym);
    ArrayCallEffect { may_read: touched, may_write: touched, kill: None, exposed: None }
}

/// Worst-case call effects: arguments and COMMON scalars are both read and
/// written, nothing is killed.
pub struct ConservativeCalls;

impl CallInfo for ConservativeCalls {
    fn kills(&self, _unit: &ProgramUnit, _stmt: StmtId) -> HashSet<SymId> {
        HashSet::new()
    }
    fn mods(&self, unit: &ProgramUnit, stmt: StmtId) -> HashSet<SymId> {
        conservative_call_scalars(unit, stmt)
    }
    fn refs(&self, unit: &ProgramUnit, stmt: StmtId) -> HashSet<SymId> {
        conservative_call_scalars(unit, stmt)
    }
}

/// Scalar args plus all COMMON scalars of the unit.
pub fn conservative_call_scalars(unit: &ProgramUnit, stmt: StmtId) -> HashSet<SymId> {
    let mut out: HashSet<SymId> = stmt_accesses(unit, stmt)
        .into_iter()
        .filter(|a| {
            a.kind == AccessKind::CallArg && a.subs.is_none() && !unit.symbols.sym(a.sym).is_array()
        })
        .map(|a| a.sym)
        .collect();
    for (id, sym) in unit.symbols.iter() {
        if sym.common.is_some() && !sym.is_array() {
            out.insert(id);
        }
    }
    out
}

/// Classify every scalar referenced inside the loop with header `header`.
/// `live_after` reports whether a symbol is live after the loop exits
/// (from [`crate::liveness::Liveness::live_after_loop`]).
pub fn classify_scalars(
    unit: &ProgramUnit,
    header: StmtId,
    live_after: &dyn Fn(SymId) -> bool,
) -> HashMap<SymId, ScalarClass> {
    classify_scalars_with(unit, header, live_after, &ConservativeCalls)
}

/// [`classify_scalars`] with interprocedural call effects.
pub fn classify_scalars_with(
    unit: &ProgramUnit,
    header: StmtId,
    live_after: &dyn Fn(SymId) -> bool,
    calls: &dyn CallInfo,
) -> HashMap<SymId, ScalarClass> {
    let d = unit.loop_of(header);
    let mut facts = BodyFacts::default();
    let mut assigned: HashSet<SymId> = HashSet::new();
    // The loop index is assigned by the DO statement itself.
    assigned.insert(d.var);
    walk_block(unit, &d.body, &mut assigned, &mut facts, calls);
    facts.assigned_on_all_paths = assigned;

    let invariant_syms = crate::symbolic::written_in_loop(unit, header);

    let mut out = HashMap::new();
    for &sym in facts.read.union(&facts.written) {
        if unit.symbols.sym(sym).is_array() || unit.symbols.sym(sym).param.is_some() {
            continue;
        }
        if sym == d.var {
            out.insert(sym, ScalarClass::LoopIndex);
            continue;
        }
        let class = if !facts.written.contains(&sym) {
            ScalarClass::ReadOnly
        } else if let Some(op) = reduction_op(unit, &d.body, sym) {
            ScalarClass::Reduction(op)
        } else if let Some(step) = induction_step(unit, &d.body, sym, &invariant_syms) {
            ScalarClass::AuxInduction { step }
        } else if !facts.exposed.contains(&sym) {
            let needs_last = live_after(sym);
            if needs_last && !facts.assigned_on_all_paths.contains(&sym) {
                // The final value is needed but not every path assigns it:
                // privatization would lose the value.
                ScalarClass::Shared
            } else {
                ScalarClass::Private { needs_lastprivate: needs_last }
            }
        } else {
            ScalarClass::Shared
        };
        out.insert(sym, class);
    }
    out
}

/// Structured walk computing exposure and definite assignment.
/// `assigned` is threaded through sequentially; on return it holds the
/// definitely-assigned set at block end.
fn walk_block(
    unit: &ProgramUnit,
    block: &[StmtId],
    assigned: &mut HashSet<SymId>,
    facts: &mut BodyFacts,
    calls: &dyn CallInfo,
) {
    for &sid in block {
        let st = unit.stmt(sid);
        let is_call_stmt = matches!(st.kind, StmtKind::Call { .. });
        // Reads of this statement (subscripts, rhs, conditions, bounds).
        for acc in stmt_accesses(unit, sid) {
            if acc.subs.is_some() {
                continue; // array accesses are the dependence tester's job
            }
            match acc.kind {
                AccessKind::Read => {
                    facts.read.insert(acc.sym);
                    if !assigned.contains(&acc.sym) {
                        facts.exposed.insert(acc.sym);
                    }
                }
                AccessKind::CallArg => {
                    // Call *statements* are refined through CallInfo below;
                    // function references inside expressions stay
                    // conservative.
                    if !is_call_stmt && !unit.symbols.sym(acc.sym).is_array() {
                        facts.read.insert(acc.sym);
                        facts.written.insert(acc.sym);
                        if !assigned.contains(&acc.sym) {
                            facts.exposed.insert(acc.sym);
                        }
                    }
                }
                AccessKind::Write => {}
            }
        }
        match &st.kind {
            StmtKind::Assign { lhs: LValue::Var(s), .. } => {
                facts.written.insert(*s);
                assigned.insert(*s);
            }
            StmtKind::Assign { .. } => {}
            StmtKind::Do(d) => {
                // Inner loop: its body may run zero times, so nothing it
                // assigns is definite after it — walk with a clone. The
                // inner index is assigned by the DO itself.
                facts.written.insert(d.var);
                assigned.insert(d.var);
                let mut inner = assigned.clone();
                walk_block(unit, &d.body, &mut inner, facts, calls);
            }
            StmtKind::If { arms, else_block } => {
                let entry = assigned.clone();
                let mut result: Option<HashSet<SymId>> = None;
                for (_, blk) in arms {
                    let mut a = entry.clone();
                    walk_block(unit, blk, &mut a, facts, calls);
                    result = Some(match result {
                        None => a,
                        Some(r) => r.intersection(&a).copied().collect(),
                    });
                }
                match else_block {
                    Some(blk) => {
                        let mut a = entry.clone();
                        walk_block(unit, blk, &mut a, facts, calls);
                        if let Some(r) = result {
                            *assigned = r.intersection(&a).copied().collect();
                        }
                    }
                    None => {
                        // Fall-through path assigns nothing extra.
                        *assigned = entry;
                    }
                }
            }
            StmtKind::Call { .. } => {
                // Interprocedural effects: refs first (a killed-but-read
                // scalar is still exposed if read before being written in
                // the callee — KILL implies written-on-all-paths, not
                // written-before-read, so exposure uses REF only).
                for s in calls.refs(unit, sid) {
                    facts.read.insert(s);
                    if !assigned.contains(&s) {
                        facts.exposed.insert(s);
                    }
                }
                for s in calls.mods(unit, sid) {
                    facts.written.insert(s);
                }
                for s in calls.kills(unit, sid) {
                    facts.written.insert(s);
                    assigned.insert(s);
                }
            }
            _ => {}
        }
    }
}

/// If every statement referencing `sym` in the body is `sym = sym op e`
/// (with `e` free of `sym`), return the common reduction operator.
fn reduction_op(unit: &ProgramUnit, body: &[StmtId], sym: SymId) -> Option<RedOp> {
    let mut op: Option<RedOp> = None;
    let mut any = false;
    let mut ok = true;
    ped_fortran::visit::for_each_stmt(unit, &body.to_vec(), &mut |sid| {
        if !ok {
            return;
        }
        let touches =
            stmt_accesses(unit, sid).iter().any(|a| a.sym == sym && a.subs.is_none());
        if !touches {
            return;
        }
        any = true;
        match &unit.stmt(sid).kind {
            StmtKind::Assign { lhs: LValue::Var(s), rhs } if *s == sym => {
                match reduction_update(rhs, sym) {
                    Some(this_op) => {
                        if op.is_some() && op != Some(this_op) {
                            ok = false;
                        } else {
                            op = Some(this_op);
                        }
                    }
                    None => ok = false,
                }
            }
            _ => ok = false,
        }
    });
    if ok && any {
        op
    } else {
        None
    }
}

/// Match `rhs` as `sym op e` (commutatively) where `e` is free of `sym`.
fn reduction_update(rhs: &Expr, sym: SymId) -> Option<RedOp> {
    let free_of = |e: &Expr| {
        let mut found = false;
        ped_fortran::visit::walk_expr(e, &mut |x| {
            if matches!(x, Expr::Var(s) if *s == sym) {
                found = true;
            }
        });
        !found
    };
    match rhs {
        Expr::Bin { op, l, r } => {
            let red = match op {
                BinOp::Add => RedOp::Sum,
                BinOp::Sub => RedOp::Sum, // s = s - e accumulates into a sum
                BinOp::Mul => RedOp::Product,
                _ => return None,
            };
            let l_is_sym = matches!(&**l, Expr::Var(s) if *s == sym);
            let r_is_sym = matches!(&**r, Expr::Var(s) if *s == sym);
            if l_is_sym && free_of(r) {
                Some(red)
            } else if r_is_sym && free_of(l) && *op != BinOp::Sub {
                // s = e - s is not a simple reduction.
                Some(red)
            } else {
                None
            }
        }
        Expr::Intrinsic { op, args } if args.len() == 2 => {
            let red = match op {
                ped_fortran::ast::Intrinsic::Min => RedOp::Min,
                ped_fortran::ast::Intrinsic::Max => RedOp::Max,
                _ => return None,
            };
            let a_is_sym = matches!(&args[0], Expr::Var(s) if *s == sym);
            let b_is_sym = matches!(&args[1], Expr::Var(s) if *s == sym);
            if (a_is_sym && free_of(&args[1])) || (b_is_sym && free_of(&args[0])) {
                Some(red)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// If `sym`'s only write in the body is an unconditional top-level
/// `sym = sym ± step` with loop-invariant `step`, and `sym` has other reads,
/// return the signed step expression.
fn induction_step(
    unit: &ProgramUnit,
    body: &[StmtId],
    sym: SymId,
    written_in_loop: &HashSet<SymId>,
) -> Option<Expr> {
    let mut update: Option<Expr> = None;
    let mut writes = 0usize;
    let mut reads_elsewhere = 0usize;
    // Count writes anywhere (nested included) but accept the update only at
    // the top level of the body (unconditional execution).
    ped_fortran::visit::for_each_stmt(unit, &body.to_vec(), &mut |sid| {
        for acc in stmt_accesses(unit, sid) {
            if acc.sym == sym && acc.subs.is_none() && acc.kind.may_write() {
                writes += 1;
            }
        }
    });
    for &sid in body {
        if let StmtKind::Assign { lhs: LValue::Var(s), rhs } = &unit.stmt(sid).kind {
            if *s == sym {
                if let Expr::Bin { op, l, r } = rhs {
                    let l_is_sym = matches!(&**l, Expr::Var(x) if *x == sym);
                    match op {
                        BinOp::Add if l_is_sym => update = Some((**r).clone()),
                        BinOp::Sub if l_is_sym => update = Some(Expr::neg((**r).clone())),
                        BinOp::Add if matches!(&**r, Expr::Var(x) if *x == sym) => {
                            update = Some((**l).clone())
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    let step = update?;
    if writes != 1 {
        return None;
    }
    if !crate::symbolic::is_invariant(&step, written_in_loop) {
        return None;
    }
    // Other reads beyond the self-update make it an induction variable used
    // as data (otherwise it is just a running counter ≡ sum reduction).
    ped_fortran::visit::for_each_stmt(unit, &body.to_vec(), &mut |sid| {
        let is_update = matches!(
            &unit.stmt(sid).kind,
            StmtKind::Assign { lhs: LValue::Var(s), .. } if *s == sym
        );
        if is_update {
            return;
        }
        for acc in stmt_accesses(unit, sid) {
            if acc.sym == sym && acc.kind.may_read() {
                reads_elsewhere += 1;
            }
        }
    });
    if reads_elsewhere > 0 {
        Some(step)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parse_program;

    fn classify(src: &str, var: &str) -> ScalarClass {
        let u = parse_program(src).unwrap().units.remove(0);
        let header = *u.body.iter().find(|&&s| u.is_loop(s)).unwrap();
        let cfg = crate::cfg::Cfg::build(&u);
        let live = crate::liveness::Liveness::compute(&u, &cfg);
        let classes =
            classify_scalars(&u, header, &|s| live.live_after_loop(&u, &cfg, header, s));
        classes[&u.symbols.lookup(var).unwrap()].clone()
    }

    #[test]
    fn killed_scalar_is_private() {
        let c = classify(
            "program t\nreal a(10), b(10)\ndo i = 1, 10\nt1 = b(i) * 2.0\na(i) = t1\nenddo\nend\n",
            "t1",
        );
        assert_eq!(c, ScalarClass::Private { needs_lastprivate: false });
    }

    #[test]
    fn exposed_scalar_is_shared() {
        let c = classify(
            "program t\nreal a(10)\ndo i = 1, 10\na(i) = t1\nt1 = a(i) + 1.0\nenddo\nend\n",
            "t1",
        );
        assert_eq!(c, ScalarClass::Shared);
    }

    #[test]
    fn sum_reduction_recognized() {
        let c = classify(
            "program t\nreal a(10)\ns = 0.0\ndo i = 1, 10\ns = s + a(i)\nenddo\nprint *, s\nend\n",
            "s",
        );
        assert_eq!(c, ScalarClass::Reduction(RedOp::Sum));
    }

    #[test]
    fn max_reduction_recognized() {
        let c = classify(
            "program t\nreal a(10)\nm = a(1)\ndo i = 1, 10\nm = max(m, a(i))\nenddo\nprint *, m\nend\n",
            "m",
        );
        assert_eq!(c, ScalarClass::Reduction(RedOp::Max));
    }

    #[test]
    fn reduction_with_other_use_is_not_reduction() {
        let c = classify(
            "program t\nreal a(10)\ns = 0.0\ndo i = 1, 10\ns = s + a(i)\na(i) = s\nenddo\nend\n",
            "s",
        );
        assert_eq!(c, ScalarClass::Shared);
    }

    #[test]
    fn aux_induction_recognized() {
        let c = classify(
            "program t\nreal a(20)\nk = 0\ndo i = 1, 10\nk = k + 2\na(k) = 1.0\nenddo\nend\n",
            "k",
        );
        assert_eq!(c, ScalarClass::AuxInduction { step: Expr::Int(2) });
    }

    #[test]
    fn read_only_scalar() {
        let c = classify(
            "program t\nreal a(10)\nx = 3.0\ndo i = 1, 10\na(i) = x\nenddo\nend\n",
            "x",
        );
        assert_eq!(c, ScalarClass::ReadOnly);
    }

    #[test]
    fn loop_index_classified() {
        let c = classify("program t\nreal a(10)\ndo i = 1, 10\na(i) = 0.0\nenddo\nend\n", "i");
        assert_eq!(c, ScalarClass::LoopIndex);
    }

    #[test]
    fn conditional_write_with_liveout_is_shared() {
        // t is written only when the condition holds but read after the
        // loop: privatization with lastprivate would be wrong.
        let c = classify(
            "program t\nreal a(10)\ndo i = 1, 10\nif (a(i) .gt. 0.0) then\nt1 = a(i)\nendif\n\
             enddo\nprint *, t1\nend\n",
            "t1",
        );
        assert_eq!(c, ScalarClass::Shared);
    }

    #[test]
    fn lastprivate_when_live_after() {
        let c = classify(
            "program t\nreal a(10)\ndo i = 1, 10\nt1 = a(i)\na(i) = t1 * 2.0\nenddo\n\
             print *, t1\nend\n",
            "t1",
        );
        assert_eq!(c, ScalarClass::Private { needs_lastprivate: true });
    }

    #[test]
    fn conditional_private_without_liveout_ok() {
        let c = classify(
            "program t\nreal a(10)\ndo i = 1, 10\nif (a(i) .gt. 0.0) then\nt1 = a(i)\n\
             a(i) = t1 + 1.0\nendif\nenddo\nend\n",
            "t1",
        );
        assert_eq!(c, ScalarClass::Private { needs_lastprivate: false });
    }
}
