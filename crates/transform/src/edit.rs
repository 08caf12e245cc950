//! In-place AST editing primitives shared by the catalog.
//!
//! All rewrites go through these helpers so the invariants hold everywhere:
//! statements are spliced, never re-allocated (ids of surviving statements
//! are stable), deleted statements become [`StmtKind::Removed`] tombstones,
//! and fresh symbols never collide with source names.

use ped_fortran::visit::for_each_root_expr_of_stmt_mut;
use ped_fortran::{Block, DoLoop, Expr, ProgramUnit, StmtId, StmtKind, SymId};

/// Locate the block containing `target` and replace that single statement
/// with `replacement` (splice). Returns false if the statement is not found.
pub fn replace_stmt(unit: &mut ProgramUnit, target: StmtId, replacement: &[StmtId]) -> bool {
    let mut body = std::mem::take(&mut unit.body);
    let found = splice(unit, &mut body, target, replacement);
    unit.body = body;
    found
}

fn splice(
    unit: &mut ProgramUnit,
    block: &mut Block,
    target: StmtId,
    replacement: &[StmtId],
) -> bool {
    if let Some(pos) = block.iter().position(|&s| s == target) {
        block.splice(pos..=pos, replacement.iter().copied());
        return true;
    }
    for &sid in block.iter() {
        // Temporarily move the nested blocks out to edit them.
        let mut kind = std::mem::replace(&mut unit.stmt_mut(sid).kind, StmtKind::Removed);
        let found = match &mut kind {
            StmtKind::Do(d) => splice(unit, &mut d.body, target, replacement),
            StmtKind::If { arms, else_block } => {
                let mut f = false;
                for (_, b) in arms.iter_mut() {
                    if splice(unit, b, target, replacement) {
                        f = true;
                        break;
                    }
                }
                if !f {
                    if let Some(b) = else_block {
                        f = splice(unit, b, target, replacement);
                    }
                }
                f
            }
            _ => false,
        };
        unit.stmt_mut(sid).kind = kind;
        if found {
            return true;
        }
    }
    false
}

/// Tombstone a statement (the arena keeps the slot).
pub fn remove_stmt(unit: &mut ProgramUnit, target: StmtId) -> bool {
    let found = replace_stmt(unit, target, &[]);
    if found {
        unit.stmt_mut(target).kind = StmtKind::Removed;
    }
    found
}

/// Deep-copy a statement (and its nested blocks) into new arena slots.
pub fn clone_stmt(unit: &mut ProgramUnit, src: StmtId) -> StmtId {
    let kind = unit.stmt(src).kind.clone();
    let span = unit.stmt(src).span;
    let kind = match kind {
        StmtKind::Do(d) => {
            let body = d.body.iter().map(|&s| clone_stmt(unit, s)).collect();
            StmtKind::Do(DoLoop { body, ..d })
        }
        StmtKind::If { arms, else_block } => {
            let arms = arms
                .into_iter()
                .map(|(c, b)| (c, b.iter().map(|&s| clone_stmt(unit, s)).collect()))
                .collect();
            let else_block =
                else_block.map(|b| b.iter().map(|&s| clone_stmt(unit, s)).collect());
            StmtKind::If { arms, else_block }
        }
        other => other,
    };
    unit.alloc_stmt(kind, span)
}

/// Deep-copy a statement and substitute `var → replacement` in every
/// expression of the copy.
pub fn clone_stmt_subst(
    unit: &mut ProgramUnit,
    src: StmtId,
    var: SymId,
    replacement: &Expr,
) -> StmtId {
    let copy = clone_stmt(unit, src);
    subst_var_in_stmt(unit, copy, var, replacement);
    copy
}

/// Substitute every occurrence of scalar `var` (as an expression) in a
/// statement and its nested statements with `replacement`. The replacement
/// may itself mention `var` — substitution never descends into inserted
/// replacements.
pub fn subst_var_in_stmt(unit: &mut ProgramUnit, stmt: StmtId, var: SymId, replacement: &Expr) {
    let mut kind = std::mem::replace(&mut unit.stmt_mut(stmt).kind, StmtKind::Removed);
    // Root expressions of this statement.
    for_each_root_expr_of_stmt_mut(&mut kind, &mut |e| subst_in_expr(e, var, replacement));
    // Nested statements.
    match &mut kind {
        StmtKind::Do(d) => {
            let body = d.body.clone();
            for &s in &body {
                subst_var_in_stmt(unit, s, var, replacement);
            }
        }
        StmtKind::If { arms, else_block } => {
            for (_, b) in arms.iter() {
                for &s in b.iter() {
                    subst_var_in_stmt(unit, s, var, replacement);
                }
            }
            if let Some(b) = else_block {
                for &s in b.iter() {
                    subst_var_in_stmt(unit, s, var, replacement);
                }
            }
        }
        _ => {}
    }
    unit.stmt_mut(stmt).kind = kind;
}

/// Substitute inside one expression tree, without descending into inserted
/// replacements.
pub fn subst_in_expr(e: &mut Expr, var: SymId, replacement: &Expr) {
    if matches!(e, Expr::Var(s) if *s == var) {
        *e = replacement.clone();
        return;
    }
    match e {
        Expr::ArrayRef { subs, .. } => {
            for s in subs {
                subst_in_expr(s, var, replacement);
            }
        }
        Expr::Bin { l, r, .. } => {
            subst_in_expr(l, var, replacement);
            subst_in_expr(r, var, replacement);
        }
        Expr::Un { e, .. } => subst_in_expr(e, var, replacement),
        Expr::Intrinsic { args, .. } | Expr::Call { args, .. } => {
            for a in args {
                subst_in_expr(a, var, replacement);
            }
        }
        _ => {}
    }
}

/// Create a fresh scalar symbol derived from `base` that collides with no
/// existing name.
pub fn fresh_scalar(unit: &mut ProgramUnit, base: &str, ty: ped_fortran::Ty) -> SymId {
    for n in 1..10_000 {
        let name = format!("{base}${n}");
        if unit.symbols.lookup(&name).is_none() {
            let id = unit.symbols.intern(&name);
            unit.symbols.sym_mut(id).ty = ty;
            unit.symbols.sym_mut(id).declared = true;
            return id;
        }
    }
    unreachable!("10k fresh-name collisions");
}

/// True when the loop body is exactly one nested DO (a perfect 2-nest).
pub fn perfect_nest(unit: &ProgramUnit, header: StmtId) -> Option<StmtId> {
    let d = unit.loop_of(header);
    let live: Vec<StmtId> = d
        .body
        .iter()
        .copied()
        .filter(|&s| !matches!(unit.stmt(s).kind, StmtKind::Removed | StmtKind::Continue))
        .collect();
    match live.as_slice() {
        [inner] if unit.is_loop(*inner) => Some(*inner),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parse_program;
    use ped_fortran::printer::print_unit;

    fn unit(src: &str) -> ProgramUnit {
        parse_program(src).unwrap().units.remove(0)
    }

    fn text(u: &ProgramUnit) -> String {
        let mut s = String::new();
        print_unit(u, &mut s);
        s
    }

    #[test]
    fn replace_top_level() {
        let mut u = unit("program t\nx = 1.0\ny = 2.0\nend\n");
        let n = u.alloc_stmt(StmtKind::Continue, ped_fortran::Span::synthetic());
        let first = u.body[0];
        assert!(replace_stmt(&mut u, first, &[n]));
        assert!(text(&u).contains("continue"));
        assert!(!text(&u).contains("x = 1.0"));
    }

    #[test]
    fn replace_nested_in_loop() {
        let mut u = unit("program t\nreal a(5)\ndo i = 1, 5\na(i) = 1.0\nenddo\nend\n");
        let inner = u.loop_of(u.body[0]).body[0];
        assert!(remove_stmt(&mut u, inner));
        assert!(!text(&u).contains("a(i)"));
        assert_eq!(u.stmt(inner).kind, StmtKind::Removed);
    }

    #[test]
    fn replace_inside_if_arm() {
        let mut u = unit("program t\nif (x .gt. 0.0) then\ny = 1.0\nendif\nend\n");
        let iff = u.body[0];
        let inner = match &u.stmt(iff).kind {
            StmtKind::If { arms, .. } => arms[0].1[0],
            _ => unreachable!(),
        };
        assert!(remove_stmt(&mut u, inner));
        assert!(!text(&u).contains("y = 1.0"));
    }

    #[test]
    fn substitution_including_subscripts() {
        let mut u = unit("program t\nreal a(10)\na(k) = k + 1\nend\n");
        let k = u.symbols.lookup("k").unwrap();
        let stmt = u.body[0];
        subst_var_in_stmt(&mut u, stmt, k, &Expr::Int(3));
        let s = text(&u);
        assert!(s.contains("a(3) = 3 + 1"), "{s}");
    }

    #[test]
    fn clone_subst_replaces_without_descending() {
        let mut u = unit("program t\nreal a(10)\ndo i = 1, 5\na(i) = i\nenddo\nend\n");
        let i = u.symbols.lookup("i").unwrap();
        let hdr = u.body[0];
        let inner = u.loop_of(hdr).body[0];
        // i → i + 1: the replacement mentions i, which must not recurse.
        let copy = clone_stmt_subst(
            &mut u,
            inner,
            i,
            &Expr::bin(ped_fortran::BinOp::Add, Expr::Var(i), Expr::Int(1)),
        );
        assert_ne!(copy, inner);
        u.loop_of_mut(hdr).body.push(copy);
        let s = text(&u);
        assert!(s.contains("a(i + 1) = i + 1"), "{s}");
        assert!(s.contains("a(i) = i"), "original untouched: {s}");
    }

    #[test]
    fn fresh_names_do_not_collide() {
        let mut u = unit("program t\nx = 1.0\nend\n");
        let a = fresh_scalar(&mut u, "t", ped_fortran::Ty::Real);
        let b = fresh_scalar(&mut u, "t", ped_fortran::Ty::Real);
        assert_ne!(a, b);
        assert_ne!(u.symbols.name(a), u.symbols.name(b));
    }

    #[test]
    fn perfect_nest_detection() {
        let u = unit(
            "program t\nreal a(5,5)\ndo i = 1, 5\ndo j = 1, 5\na(i,j) = 0.0\nenddo\nenddo\nend\n",
        );
        assert!(perfect_nest(&u, u.body[0]).is_some());
        let u2 = unit(
            "program t\nreal a(5,5)\ndo i = 1, 5\nx = 1.0\ndo j = 1, 5\na(i,j) = x\nenddo\n\
             enddo\nend\n",
        );
        assert!(perfect_nest(&u2, u2.body[0]).is_none());
    }
}
