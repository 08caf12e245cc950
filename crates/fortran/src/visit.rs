//! AST walkers shared by every analysis.
//!
//! Three families:
//!
//! * statement walkers over nested blocks (pre-order, matching source order);
//! * expression walkers (immutable and mutable) over one statement;
//! * variable-access collection: the flat list of reads/writes a statement
//!   performs, which is the raw material for def-use chains and dependence
//!   testing. Call-statement arguments are conservatively `ReadWrite` until
//!   interprocedural MOD/REF analysis refines them — exactly the "assume a
//!   dependence exists if it cannot prove otherwise" rule of the paper.

use crate::ast::*;
use crate::symbols::SymId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Visit every statement id in `block` and its nested blocks, pre-order.
pub fn for_each_stmt(unit: &ProgramUnit, block: &Block, f: &mut impl FnMut(StmtId)) {
    for &id in block {
        f(id);
        match &unit.stmt(id).kind {
            StmtKind::If { arms, else_block } => {
                for (_, b) in arms {
                    for_each_stmt(unit, b, f);
                }
                if let Some(b) = else_block {
                    for_each_stmt(unit, b, f);
                }
            }
            StmtKind::Do(d) => for_each_stmt(unit, &d.body, f),
            _ => {}
        }
    }
}

/// All statement ids in `block`, recursively, in pre-order.
pub fn stmts_recursive(unit: &ProgramUnit, block: &Block) -> Vec<StmtId> {
    let mut out = Vec::new();
    for_each_stmt(unit, block, &mut |id| out.push(id));
    out
}

/// Visit every expression of one statement (not descending into nested
/// statements). The left-hand side of an assignment is visited as an
/// expression too (its subscripts are expressions).
pub fn for_each_expr_of_stmt(kind: &StmtKind, f: &mut impl FnMut(&Expr)) {
    match kind {
        StmtKind::Assign { lhs, rhs } => {
            if let LValue::ArrayElem(_, subs) = lhs {
                for s in subs {
                    walk_expr(s, f);
                }
            }
            walk_expr(rhs, f);
        }
        StmtKind::If { arms, .. } => {
            for (cond, _) in arms {
                walk_expr(cond, f);
            }
        }
        StmtKind::Do(d) => {
            walk_expr(&d.lo, f);
            walk_expr(&d.hi, f);
            if let Some(s) = &d.step {
                walk_expr(s, f);
            }
        }
        StmtKind::Call { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        StmtKind::Print { items } => {
            for e in items {
                walk_expr(e, f);
            }
        }
        StmtKind::Return | StmtKind::Stop | StmtKind::Continue | StmtKind::Removed => {}
    }
}

/// Pre-order walk of one expression tree.
pub fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::ArrayRef { subs, .. } => {
            for s in subs {
                walk_expr(s, f);
            }
        }
        Expr::Bin { l, r, .. } => {
            walk_expr(l, f);
            walk_expr(r, f);
        }
        Expr::Un { e, .. } => walk_expr(e, f),
        Expr::Intrinsic { args, .. } | Expr::Call { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        _ => {}
    }
}

/// Mutable pre-order walk of one expression tree.
pub fn walk_expr_mut(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    f(e);
    match e {
        Expr::ArrayRef { subs, .. } => {
            for s in subs {
                walk_expr_mut(s, f);
            }
        }
        Expr::Bin { l, r, .. } => {
            walk_expr_mut(l, f);
            walk_expr_mut(r, f);
        }
        Expr::Un { e, .. } => walk_expr_mut(e, f),
        Expr::Intrinsic { args, .. } | Expr::Call { args, .. } => {
            for a in args {
                walk_expr_mut(a, f);
            }
        }
        _ => {}
    }
}

/// Visit each *root* expression of one statement mutably, without
/// descending into subexpressions — for rewrites (like substitution) that
/// manage their own recursion and must not re-visit replaced nodes.
pub fn for_each_root_expr_of_stmt_mut(kind: &mut StmtKind, f: &mut impl FnMut(&mut Expr)) {
    match kind {
        StmtKind::Assign { lhs, rhs } => {
            if let LValue::ArrayElem(_, subs) = lhs {
                for s in subs {
                    f(s);
                }
            }
            f(rhs);
        }
        StmtKind::If { arms, .. } => {
            for (cond, _) in arms {
                f(cond);
            }
        }
        StmtKind::Do(d) => {
            f(&mut d.lo);
            f(&mut d.hi);
            if let Some(s) = &mut d.step {
                f(s);
            }
        }
        StmtKind::Call { args, .. } => {
            for a in args {
                f(a);
            }
        }
        StmtKind::Print { items } => {
            for e in items {
                f(e);
            }
        }
        StmtKind::Return | StmtKind::Stop | StmtKind::Continue | StmtKind::Removed => {}
    }
}

// ------------------------------------------------------------ accesses ----

/// How a statement touches a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Value is read.
    Read,
    /// Value is written.
    Write,
    /// Passed to a procedure that may read and/or write it (refined later by
    /// interprocedural MOD/REF analysis).
    CallArg,
}

impl AccessKind {
    /// Conservatively, may this access read the variable?
    pub fn may_read(self) -> bool {
        !matches!(self, AccessKind::Write)
    }

    /// Conservatively, may this access write the variable?
    pub fn may_write(self) -> bool {
        !matches!(self, AccessKind::Read)
    }
}

/// One variable access performed by a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// Statement performing the access.
    pub stmt: StmtId,
    /// Variable accessed.
    pub sym: SymId,
    /// Subscripts if an array element; `None` for scalars and whole arrays.
    pub subs: Option<Vec<Expr>>,
    /// Read / write / call-argument.
    pub kind: AccessKind,
}

/// Collect accesses of a single statement (no recursion into nested blocks;
/// a DO statement contributes its index-variable write and bound reads, an
/// IF contributes its condition reads).
pub fn stmt_accesses(unit: &ProgramUnit, id: StmtId) -> Vec<Access> {
    let mut out = Vec::new();
    let st = unit.stmt(id);
    match &st.kind {
        StmtKind::Assign { lhs, rhs } => {
            match lhs {
                LValue::Var(s) => {
                    out.push(Access { stmt: id, sym: *s, subs: None, kind: AccessKind::Write })
                }
                LValue::ArrayElem(s, subs) => {
                    for e in subs {
                        collect_reads(id, e, &mut out);
                    }
                    out.push(Access {
                        stmt: id,
                        sym: *s,
                        subs: Some(subs.clone()),
                        kind: AccessKind::Write,
                    });
                }
            }
            collect_reads(id, rhs, &mut out);
        }
        StmtKind::If { arms, .. } => {
            for (cond, _) in arms {
                collect_reads(id, cond, &mut out);
            }
        }
        StmtKind::Do(d) => {
            collect_reads(id, &d.lo, &mut out);
            collect_reads(id, &d.hi, &mut out);
            if let Some(s) = &d.step {
                collect_reads(id, s, &mut out);
            }
            out.push(Access { stmt: id, sym: d.var, subs: None, kind: AccessKind::Write });
        }
        StmtKind::Call { args, .. } => {
            collect_call_args(id, args, &mut out);
        }
        StmtKind::Print { items } => {
            for e in items {
                collect_reads(id, e, &mut out);
            }
        }
        StmtKind::Return | StmtKind::Stop | StmtKind::Continue | StmtKind::Removed => {}
    }
    out
}

/// Collect read accesses from an expression; user-function arguments that
/// are bare variables or array elements become `CallArg`.
fn collect_reads(stmt: StmtId, e: &Expr, out: &mut Vec<Access>) {
    match e {
        Expr::Var(s) => {
            out.push(Access { stmt, sym: *s, subs: None, kind: AccessKind::Read })
        }
        Expr::ArrayRef { sym, subs } => {
            for s in subs {
                collect_reads(stmt, s, out);
            }
            out.push(Access { stmt, sym: *sym, subs: Some(subs.clone()), kind: AccessKind::Read });
        }
        Expr::Bin { l, r, .. } => {
            collect_reads(stmt, l, out);
            collect_reads(stmt, r, out);
        }
        Expr::Un { e, .. } => collect_reads(stmt, e, out),
        Expr::Intrinsic { args, .. } => {
            for a in args {
                collect_reads(stmt, a, out);
            }
        }
        Expr::Call { args, .. } => collect_call_args(stmt, args, out),
        _ => {}
    }
}

fn collect_call_args(stmt: StmtId, args: &[Expr], out: &mut Vec<Access>) {
    for a in args {
        match a {
            Expr::Var(s) => {
                out.push(Access { stmt, sym: *s, subs: None, kind: AccessKind::CallArg })
            }
            Expr::ArrayRef { sym, subs } => {
                for s in subs {
                    collect_reads(stmt, s, out);
                }
                out.push(Access {
                    stmt,
                    sym: *sym,
                    subs: Some(subs.clone()),
                    kind: AccessKind::CallArg,
                });
            }
            // An expression argument is passed by value-result of a
            // temporary: only a read of its operands.
            other => collect_reads(stmt, other, out),
        }
    }
}

// ----------------------------------------------------------- loop tree ----

/// One node of a unit's loop nesting tree.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNode {
    /// The DO statement.
    pub stmt: StmtId,
    /// Nesting depth (outermost = 1).
    pub depth: usize,
    /// Enclosing loop, if any.
    pub parent: Option<StmtId>,
    /// Directly nested loops, in source order.
    pub children: Vec<StmtId>,
    /// Structural fingerprint of the nest rooted here; see
    /// [`loop_fingerprint`].
    pub fingerprint: u64,
}

/// The loop nesting forest of a unit, in pre-order.
pub fn loop_tree(unit: &ProgramUnit) -> Vec<LoopNode> {
    let mut out = Vec::new();
    collect_loops(unit, &unit.body, 1, None, &mut out);
    out
}

/// A stable structural fingerprint of the loop nest rooted at `header`:
/// the pre-order statement subtree (ids, full statement kinds — which
/// covers bounds, bodies, and parallel marks) plus the declaration of
/// every symbol the subtree references (name, type, dimensions, COMMON
/// membership, PARAMETER value). Two equal fingerprints mean the nest
/// contributes identical *intra-subtree* analysis input; everything a
/// dependence graph reads from outside the subtree (constants reaching
/// the header, liveness past the loop, control context) is deliberately
/// excluded and must be fingerprinted by the caller.
pub fn loop_fingerprint(unit: &ProgramUnit, header: StmtId) -> u64 {
    let mut h = DefaultHasher::new();
    let body = match &unit.stmt(header).kind {
        StmtKind::Do(d) => std::slice::from_ref(&header)
            .iter()
            .copied()
            .chain(stmts_recursive(unit, &d.body))
            .collect::<Vec<_>>(),
        // Not a loop header: fingerprint just the one statement.
        _ => vec![header],
    };
    let mut syms: Vec<SymId> = Vec::new();
    for &id in &body {
        let st = unit.stmt(id);
        id.0.hash(&mut h);
        st.label.hash(&mut h);
        format!("{:?}", st.kind).hash(&mut h);
        for acc in stmt_accesses(unit, id) {
            syms.push(acc.sym);
        }
    }
    syms.sort_unstable();
    syms.dedup();
    for s in syms {
        let sym = unit.symbols.sym(s);
        s.0.hash(&mut h);
        sym.name.hash(&mut h);
        format!("{sym:?}").hash(&mut h);
    }
    h.finish()
}

fn collect_loops(
    unit: &ProgramUnit,
    block: &Block,
    depth: usize,
    parent: Option<StmtId>,
    out: &mut Vec<LoopNode>,
) {
    for &id in block {
        match &unit.stmt(id).kind {
            StmtKind::Do(d) => {
                let my_index = out.len();
                out.push(LoopNode {
                    stmt: id,
                    depth,
                    parent,
                    children: Vec::new(),
                    fingerprint: loop_fingerprint(unit, id),
                });
                if let Some(p) = parent {
                    if let Some(pn) = out.iter_mut().find(|n| n.stmt == p) {
                        pn.children.push(id);
                    }
                }
                collect_loops(unit, &d.body, depth + 1, Some(id), out);
                let _ = my_index;
            }
            StmtKind::If { arms, else_block } => {
                for (_, b) in arms {
                    collect_loops(unit, b, depth, parent, out);
                }
                if let Some(b) = else_block {
                    collect_loops(unit, b, depth, parent, out);
                }
            }
            _ => {}
        }
    }
}

/// The loops enclosing `target` (outermost first), found by searching from
/// the unit body. Returns `None` if the statement is not in the body tree.
pub fn enclosing_loops(unit: &ProgramUnit, target: StmtId) -> Option<Vec<StmtId>> {
    fn search(
        unit: &ProgramUnit,
        block: &Block,
        target: StmtId,
        stack: &mut Vec<StmtId>,
    ) -> bool {
        for &id in block {
            if id == target {
                return true;
            }
            match &unit.stmt(id).kind {
                StmtKind::Do(d) => {
                    stack.push(id);
                    if search(unit, &d.body, target, stack) {
                        return true;
                    }
                    stack.pop();
                }
                StmtKind::If { arms, else_block } => {
                    for (_, b) in arms {
                        if search(unit, b, target, stack) {
                            return true;
                        }
                    }
                    if let Some(b) = else_block {
                        if search(unit, b, target, stack) {
                            return true;
                        }
                    }
                }
                _ => {}
            }
        }
        false
    }
    let mut stack = Vec::new();
    if search(unit, &unit.body, target, &mut stack) {
        Some(stack)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn sample() -> ProgramUnit {
        parse_program(
            "program t\nreal a(10,10), s\ndo i = 1, 10\ndo j = 1, 10\na(i,j) = a(i,j) + s\n\
             enddo\nenddo\nif (s .gt. 0.0) then\ns = 0.0\nendif\nend\n",
        )
        .unwrap()
        .units
        .remove(0)
    }

    #[test]
    fn stmt_walk_visits_all() {
        let u = sample();
        let ids = stmts_recursive(&u, &u.body);
        // do, do, assign, if, assign
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn loop_tree_shape() {
        let u = sample();
        let tree = loop_tree(&u);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].depth, 1);
        assert_eq!(tree[1].depth, 2);
        assert_eq!(tree[1].parent, Some(tree[0].stmt));
        assert_eq!(tree[0].children, vec![tree[1].stmt]);
    }

    #[test]
    fn accesses_of_assignment() {
        let u = sample();
        let assign = stmts_recursive(&u, &u.body)
            .into_iter()
            .find(|&id| matches!(u.stmt(id).kind, StmtKind::Assign { .. }))
            .unwrap();
        let acc = stmt_accesses(&u, assign);
        let a = u.symbols.lookup("a").unwrap();
        let writes: Vec<_> =
            acc.iter().filter(|x| x.kind == AccessKind::Write).collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].sym, a);
        // reads: i, j (subscripts, twice), a(i,j), s
        assert!(acc.iter().any(|x| x.sym == a && x.kind == AccessKind::Read));
    }

    #[test]
    fn do_stmt_writes_index() {
        let u = sample();
        let outer = loop_tree(&u)[0].stmt;
        let acc = stmt_accesses(&u, outer);
        let i = u.symbols.lookup("i").unwrap();
        assert!(acc
            .iter()
            .any(|x| x.sym == i && x.kind == AccessKind::Write));
    }

    #[test]
    fn call_args_are_callargs() {
        let mut p = parse_program("program t\nreal x, y(5)\ncall f(x, y, x + 1.0)\nend\n").unwrap();
        let u = p.units.remove(0);
        let call = u.body[0];
        let acc = stmt_accesses(&u, call);
        let x = u.symbols.lookup("x").unwrap();
        let y = u.symbols.lookup("y").unwrap();
        assert!(acc.iter().any(|a| a.sym == x && a.kind == AccessKind::CallArg));
        assert!(acc.iter().any(|a| a.sym == y && a.kind == AccessKind::CallArg));
        // x + 1.0 argument is a plain read of x.
        assert!(acc.iter().any(|a| a.sym == x && a.kind == AccessKind::Read));
    }

    #[test]
    fn loop_fingerprint_is_stable_and_structural() {
        let u1 = sample();
        let u2 = sample();
        let t1 = loop_tree(&u1);
        let t2 = loop_tree(&u2);
        // Deterministic across parses of the same source.
        assert_eq!(t1[0].fingerprint, t2[0].fingerprint);
        assert_eq!(t1[1].fingerprint, t2[1].fingerprint);
        // Inner and outer nests hash differently.
        assert_ne!(t1[0].fingerprint, t1[1].fingerprint);
        assert_eq!(t1[0].fingerprint, loop_fingerprint(&u1, t1[0].stmt));
    }

    #[test]
    fn loop_fingerprint_sees_body_and_sibling_edits() {
        let two = |mid: &str| {
            parse_program(&format!(
                "program t\nreal a(10), b(10)\ndo i = 1, 10\na(i) = {mid}\nenddo\n\
                 do j = 1, 10\nb(j) = 0.0\nenddo\nend\n"
            ))
            .unwrap()
            .units
            .remove(0)
        };
        let base = two("1.0");
        let edited = two("2.0");
        let tb = loop_tree(&base);
        let te = loop_tree(&edited);
        // The edited nest changes its fingerprint...
        assert_ne!(tb[0].fingerprint, te[0].fingerprint);
        // ...the untouched sibling keeps its own.
        assert_eq!(tb[1].fingerprint, te[1].fingerprint);
    }

    #[test]
    fn enclosing_loops_found() {
        let u = sample();
        let tree = loop_tree(&u);
        let assign = stmts_recursive(&u, &u.body)
            .into_iter()
            .find(|&id| matches!(u.stmt(id).kind, StmtKind::Assign { .. }))
            .unwrap();
        let enc = enclosing_loops(&u, assign).unwrap();
        assert_eq!(enc, vec![tree[0].stmt, tree[1].stmt]);
    }
}
